package spectrum

import (
	"encoding/binary"
	"fmt"
	"slices"

	"reptile/internal/kmer"
)

// PackedStore is an immutable open-addressing spectrum: one flat power-of-two
// slab of keys probed linearly from HashID(id), with the counts in a parallel
// slab. It is the frozen form every mutable HashStore collapses into at the
// end of spectrum construction (paper Step III): Count is allocation- and
// pointer-chase-free, and MemBytes is the exact slab footprint rather than
// the 2x map estimate — at the build's load factor that roughly halves the
// resident spectrum memory (see DESIGN.md §11).
//
// Concurrency: immutable after construction, so it is safe to share between
// the responder goroutine and the correction workers with no locking. The
// mutating Lookuper-companion methods (Add, Set, Delete, Clear, Prune) exist
// only to panic: a write after the freeze point is an engine bug, and the
// freezeguard lint flags it statically.
type PackedStore struct {
	keys   []uint64 // 0 means empty; the real ID 0 lives out of band
	counts []uint32
	mask   uint64
	n      int // live entries, including the out-of-band zero ID
	// ID 0 (the all-A k-mer) cannot use key 0, which marks an empty slot.
	hasZero   bool
	zeroCount uint32
}

// packedMaxLoad is expressed as a fraction num/den: the table is sized to
// the smallest power of two keeping load ≤ 0.8. Linear probing stays short
// (a handful of contiguous slots, i.e. 1-2 cache lines per miss) while the
// per-entry footprint stays well under the map's ~24 bytes.
const (
	packedLoadNum = 4
	packedLoadDen = 5
)

// NewPacked builds a PackedStore from entries. Duplicate IDs are merged by
// summing their counts (HashStore.Add semantics), so disjoint shard dumps
// and raw dumps both pack correctly.
func NewPacked(entries []Entry) *PackedStore {
	p := &PackedStore{}
	nonZero := 0
	for _, e := range entries {
		if e.ID != 0 {
			nonZero++
		}
	}
	if nonZero > 0 {
		capSlots := uint64(1)
		// Round the load-factor bound UP: floor division let a 1- or
		// 2-entry store fill every slot, and a probe for an absent id on
		// a full table never finds the empty slot that terminates it.
		// Ceiling keeps load strictly below 1 at every size.
		need := (uint64(nonZero)*packedLoadDen + packedLoadNum - 1) / packedLoadNum
		for capSlots < need {
			capSlots <<= 1
		}
		p.keys = make([]uint64, capSlots)
		p.counts = make([]uint32, capSlots)
		p.mask = capSlots - 1
	}
	for _, e := range entries {
		p.insert(e.ID, e.Count)
	}
	return p
}

// insert is the build-time probe loop; it is unexported so the store is
// immutable once NewPacked returns.
//
// reptile-lint:hotpath
func (p *PackedStore) insert(id kmer.ID, cnt uint32) {
	if id == 0 {
		if !p.hasZero {
			p.hasZero = true
			p.n++
		}
		p.zeroCount += cnt
		return
	}
	i := kmer.HashID(id) & p.mask
	for {
		switch p.keys[i] {
		case 0:
			p.keys[i] = uint64(id)
			p.counts[i] = cnt
			p.n++
			return
		case uint64(id):
			p.counts[i] += cnt
			return
		}
		i = (i + 1) & p.mask
	}
}

// Count implements Lookuper: probe linearly from the hash slot until the key
// or an empty slot.
//
// reptile-lint:hotpath
func (p *PackedStore) Count(id kmer.ID) (uint32, bool) {
	if id == 0 {
		return p.zeroCount, p.hasZero
	}
	if len(p.keys) == 0 {
		return 0, false
	}
	i := kmer.HashID(id) & p.mask
	for {
		k := p.keys[i]
		if k == uint64(id) {
			return p.counts[i], true
		}
		if k == 0 {
			return 0, false
		}
		i = (i + 1) & p.mask
	}
}

// Len implements Lookuper.
func (p *PackedStore) Len() int { return p.n }

// MemBytes implements Lookuper with the exact slab footprint — no load
// factor guesswork, which is what makes the Fig-5 memory comparison honest
// for the frozen stores.
func (p *PackedStore) MemBytes() int64 {
	return int64(len(p.keys))*8 + int64(len(p.counts))*4 + 64
}

// Each calls fn for every entry until fn returns false. Iteration order is
// unspecified (slab order).
//
// reptile-lint:hotpath
func (p *PackedStore) Each(fn func(Entry) bool) {
	if p.hasZero && !fn(Entry{ID: 0, Count: p.zeroCount}) {
		return
	}
	for i, k := range p.keys {
		if k == 0 {
			continue
		}
		if !fn(Entry{ID: kmer.ID(k), Count: p.counts[i]}) {
			return
		}
	}
}

// Entries returns all entries sorted by ID — same contract as
// HashStore.Entries, so the replication paths work on frozen stores.
func (p *PackedStore) Entries() []Entry {
	return p.EntriesInto(make([]Entry, 0, p.n))
}

// EntriesInto appends all entries to buf sorted by ID and returns the
// extended slice; the appended region is sorted, so passing an empty reused
// buffer gives Entries without the allocation.
//
// reptile-lint:hotpath
func (p *PackedStore) EntriesInto(buf []Entry) []Entry {
	start := len(buf)
	p.Each(func(e Entry) bool { buf = append(buf, e); return true })
	tail := buf[start:]
	slices.SortFunc(tail, entryByID)
	return buf
}

// Add panics: the store is frozen.
func (p *PackedStore) Add(id kmer.ID, n uint32) { panic("spectrum: Add on frozen PackedStore") }

// Set panics: the store is frozen.
func (p *PackedStore) Set(id kmer.ID, n uint32) { panic("spectrum: Set on frozen PackedStore") }

// Delete panics: the store is frozen.
func (p *PackedStore) Delete(id kmer.ID) { panic("spectrum: Delete on frozen PackedStore") }

// Clear panics: the store is frozen.
func (p *PackedStore) Clear() { panic("spectrum: Clear on frozen PackedStore") }

// Prune panics: the store is frozen.
func (p *PackedStore) Prune(min uint32) int { panic("spectrum: Prune on frozen PackedStore") }

// Slab image layout: a fixed header followed by the raw key and count
// slabs, so an import reconstructs the *exact* probe layout of the source
// store without rehashing — a replica answers every Count with the identical
// probe sequence the owner would have. The image is self-delimiting (the
// header carries the slot count), so several stores concatenate into one
// payload for ring re-replication.
const slabHdrBytes = 8 + 8 + 4 + 1 // slots u64 | n u64 | zeroCount u32 | hasZero u8

// ExportSlabs appends this store's slab image to buf and returns the
// extended slice. The store is immutable, so the export is safe to run
// concurrently with lookups.
func (p *PackedStore) ExportSlabs(buf []byte) []byte {
	var hdr [slabHdrBytes]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(len(p.keys)))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(p.n))
	binary.LittleEndian.PutUint32(hdr[16:20], p.zeroCount)
	if p.hasZero {
		hdr[20] = 1
	}
	buf = append(buf, hdr[:]...)
	var w [8]byte
	for _, k := range p.keys {
		binary.LittleEndian.PutUint64(w[:], k)
		buf = append(buf, w[:]...)
	}
	for _, c := range p.counts {
		binary.LittleEndian.PutUint32(w[:4], c)
		buf = append(buf, w[:4]...)
	}
	return buf
}

// SlabImageError reports a rejected packed-slab image: a corrupt or
// truncated header, or a payload shorter than the header promises. It is
// always returned *before* any slab allocation, so a hostile header cannot
// make the importer reserve multi-GB slabs it will never fill.
type SlabImageError struct {
	Reason string
}

// Error implements error.
func (e *SlabImageError) Error() string { return "spectrum: slab image: " + e.Reason }

// ImportPackedSlabs reconstructs a PackedStore from the slab image at the
// head of b, returning the store and the remainder of b (images are
// self-delimiting and concatenate). The reconstructed slabs are
// byte-identical to the exporter's, so replica lookups probe exactly as the
// owner's would. A malformed image yields a *SlabImageError with nothing
// allocated.
func ImportPackedSlabs(b []byte) (*PackedStore, []byte, error) {
	if len(b) < slabHdrBytes {
		return nil, nil, &SlabImageError{Reason: fmt.Sprintf("%d bytes, shorter than the %d-byte header", len(b), slabHdrBytes)}
	}
	slots := binary.LittleEndian.Uint64(b[0:8])
	n := binary.LittleEndian.Uint64(b[8:16])
	if slots > 0 && slots&(slots-1) != 0 {
		return nil, nil, &SlabImageError{Reason: fmt.Sprintf("%d slots (not a power of two)", slots)}
	}
	// Bound slots by the bytes actually present (12 per slot) BEFORE
	// allocating anything. Dividing the remainder sidesteps the
	// slots*12 overflow a hostile header could use to wrap the length
	// check and trigger a giant make().
	if slots > uint64(len(b)-slabHdrBytes)/12 {
		return nil, nil, &SlabImageError{Reason: fmt.Sprintf("truncated: %d bytes for %d slots", len(b), slots)}
	}
	// n counts live entries: at most one per slot plus the out-of-band
	// zero ID. Anything larger is a corrupt header, not a real store.
	if n > slots+1 {
		return nil, nil, &SlabImageError{Reason: fmt.Sprintf("%d entries in %d slots", n, slots)}
	}
	if b[20] > 1 {
		return nil, nil, &SlabImageError{Reason: fmt.Sprintf("hasZero flag %d", b[20])}
	}
	need := uint64(slabHdrBytes) + slots*12
	p := &PackedStore{
		n:         int(n),
		zeroCount: binary.LittleEndian.Uint32(b[16:20]),
		hasZero:   b[20] == 1,
	}
	if slots > 0 {
		p.keys = make([]uint64, slots)
		p.counts = make([]uint32, slots)
		p.mask = slots - 1
		off := slabHdrBytes
		for i := range p.keys {
			p.keys[i] = binary.LittleEndian.Uint64(b[off:])
			off += 8
		}
		for i := range p.counts {
			p.counts[i] = binary.LittleEndian.Uint32(b[off:])
			off += 4
		}
	}
	return p, b[need:], nil
}

// Freeze packs one or more mutable HashStores — disjoint shards of one
// logical spectrum — into a single PackedStore and releases every shard's
// map, so the pruned entries' memory actually returns to the allocator
// instead of lingering in emptied buckets. The shards are frozen afterwards:
// any further mutation panics.
func Freeze(shards ...*HashStore) *PackedStore {
	total := 0
	for _, h := range shards {
		total += h.Len()
	}
	entries := make([]Entry, 0, total)
	for _, h := range shards {
		h.Each(func(e Entry) bool { entries = append(entries, e); return true })
	}
	// Shards are disjoint, so one global sort gives a deterministic slab
	// layout independent of shard count and map iteration order.
	slices.SortFunc(entries, entryByID)
	p := NewPacked(entries)
	for _, h := range shards {
		h.Release()
	}
	return p
}
