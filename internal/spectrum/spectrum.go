// Package spectrum implements the k-mer/tile frequency stores Reptile keeps
// in memory.
//
// The paper's contribution stores spectra in hash tables (HashStore); the
// prior parallelizations it contrasts against used sorted arrays with binary
// search (SortedStore, Shah et al. 2012) and a cache-aware (B+1)-ary layout
// (CacheAwareStore, Jammula et al. 2015). All three are provided so the
// benches can reproduce that comparison.
package spectrum

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"reptile/internal/kmer"
)

// Entry is one spectrum element: an ID and its (global or local) count.
type Entry struct {
	ID    kmer.ID
	Count uint32
}

// EntrySize is the wire size of one encoded Entry in bytes.
const EntrySize = 12

// Lookuper is the read-side interface every store satisfies. Count returns
// the stored count and whether the ID is present at all.
type Lookuper interface {
	Count(id kmer.ID) (uint32, bool)
	Len() int
	MemBytes() int64
}

// HashStore is a mutable hash-table spectrum; the store the paper's
// distributed implementation uses on every rank.
//
// Concurrency: not self-synchronized. A HashStore is confined to its owning
// rank goroutine during construction; during the correction phase the
// responder goroutine reads the owned stores concurrently with the worker,
// which is safe only because both sides are read-only then — the engine
// prunes and freezes the tables at the end of spectrum construction. Any
// new writer after that point must add a mutex and a "guarded by"
// annotation (see DESIGN.md, Concurrency invariants).
type HashStore struct {
	m      map[kmer.ID]uint32 // confined: written only pre-freeze by the owning rank
	frozen bool               // set by Release; mutators panic afterwards
}

// NewHash returns an empty HashStore with room for sizeHint entries.
func NewHash(sizeHint int) *HashStore {
	return &HashStore{m: make(map[kmer.ID]uint32, sizeHint)}
}

// Add increments id's count by n, inserting it if absent.
//
// reptile-lint:hotpath
func (h *HashStore) Add(id kmer.ID, n uint32) {
	if h.frozen {
		panic("spectrum: Add on frozen HashStore")
	}
	h.m[id] += n
}

// Set stores an absolute count for id. A zero count is a legal entry and
// means "known absent from the global spectrum" — the read-kmers heuristic
// stores resolved negatives this way so lookups skip the remote round trip.
func (h *HashStore) Set(id kmer.ID, n uint32) {
	if h.frozen {
		panic("spectrum: Set on frozen HashStore")
	}
	h.m[id] = n
}

// Count returns id's count and presence.
//
// reptile-lint:hotpath
func (h *HashStore) Count(id kmer.ID) (uint32, bool) {
	c, ok := h.m[id]
	return c, ok
}

// Len returns the number of distinct IDs.
func (h *HashStore) Len() int { return len(h.m) }

// Delete removes id if present.
func (h *HashStore) Delete(id kmer.ID) {
	if h.frozen {
		panic("spectrum: Delete on frozen HashStore")
	}
	delete(h.m, id)
}

// Prune removes every entry with count < min and returns how many were
// removed. This is the threshold step at the end of spectrum construction
// (paper Step III).
func (h *HashStore) Prune(min uint32) int {
	if h.frozen {
		panic("spectrum: Prune on frozen HashStore")
	}
	removed := 0
	for id, c := range h.m {
		if c < min {
			delete(h.m, id)
			removed++
		}
	}
	return removed
}

// Each calls fn for every entry until fn returns false. Iteration order is
// unspecified (hash order).
func (h *HashStore) Each(fn func(Entry) bool) {
	for id, c := range h.m {
		if !fn(Entry{ID: id, Count: c}) {
			return
		}
	}
}

// Entries returns all entries sorted by ID, for deterministic exchange and
// for building the array-based stores.
func (h *HashStore) Entries() []Entry {
	return h.EntriesInto(make([]Entry, 0, len(h.m)))
}

// EntriesInto appends all entries to buf sorted by ID and returns the
// extended slice. The per-round spectrum exchange passes a buffer reused
// across batch rounds, so the sort scratch stops churning the allocator.
func (h *HashStore) EntriesInto(buf []Entry) []Entry {
	start := len(buf)
	for id, c := range h.m {
		buf = append(buf, Entry{ID: id, Count: c})
	}
	tail := buf[start:]
	slices.SortFunc(tail, entryByID)
	return buf
}

// entryByID orders entries by ID. IDs within one store are unique, so the
// order is total and matches any other sort by ID.
func entryByID(a, b Entry) int { return cmp.Compare(a.ID, b.ID) }

// Clear removes all entries but keeps the allocated table. The batch-reads
// heuristic empties the reads tables after every chunk (paper Section III-B).
func (h *HashStore) Clear() {
	if h.frozen {
		panic("spectrum: Clear on frozen HashStore")
	}
	for id := range h.m {
		delete(h.m, id)
	}
}

// Release drops the mutable map and marks the store frozen: the table's
// memory returns to the allocator (Clear and Prune keep the bucket array
// alive; Release does not) and any later mutation panics. Freeze calls this
// after packing; reads keep working and see an empty store.
func (h *HashStore) Release() {
	h.m = nil
	h.frozen = true
}

// MemBytes estimates the heap footprint. Go maps cost roughly 2x the raw
// entry payload once bucket overhead and load factor are included; the
// constant matters only in that it is applied uniformly across modes, so the
// paper's memory *comparisons* (Fig 5) are preserved.
func (h *HashStore) MemBytes() int64 {
	const perEntry = 2 * EntrySize
	return int64(len(h.m))*perEntry + 48
}

// SortedStore is an immutable sorted-array spectrum searched by binary
// search: the layout of the original parallel Reptile (Shah et al.).
type SortedStore struct {
	ids    []kmer.ID
	counts []uint32
}

// NewSorted builds a SortedStore from entries, which must be sorted by ID
// and duplicate-free (HashStore.Entries guarantees both).
func NewSorted(entries []Entry) *SortedStore {
	s := &SortedStore{
		ids:    make([]kmer.ID, len(entries)),
		counts: make([]uint32, len(entries)),
	}
	for i, e := range entries {
		if i > 0 && e.ID <= entries[i-1].ID {
			panic(fmt.Sprintf("spectrum: NewSorted input not strictly sorted at %d", i))
		}
		s.ids[i] = e.ID
		s.counts[i] = e.Count
	}
	return s
}

// Count looks up id by binary search: O(log2 N) probes.
func (s *SortedStore) Count(id kmer.ID) (uint32, bool) {
	i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= id })
	if i < len(s.ids) && s.ids[i] == id {
		return s.counts[i], true
	}
	return 0, false
}

// Len returns the number of entries.
func (s *SortedStore) Len() int { return len(s.ids) }

// MemBytes returns the array footprint.
func (s *SortedStore) MemBytes() int64 {
	return int64(len(s.ids))*EntrySize + 48
}

// Branching is the fan-out of the cache-aware layout: with 64-byte cache
// lines and 8-byte keys, B = 8 keys fit per line, giving O(log_(B+1) N)
// line fetches per lookup — the improvement Jammula et al. report.
const Branching = 8

// CacheAwareStore stores the sorted entries in an implicit (B+1)-ary search
// tree laid out level by level, so each node's keys share a cache line.
type CacheAwareStore struct {
	keys   []kmer.ID // level-order node-major layout, padded with sentinel
	counts []uint32
	n      int
	// The all-ones ID doubles as the padding sentinel, so a real entry with
	// that ID (an all-T 32-base tile) is stored out of band.
	hasMax   bool
	maxCount uint32
}

const sentinel = ^kmer.ID(0)

// NewCacheAware builds the layout from ID-sorted, duplicate-free entries.
func NewCacheAware(entries []Entry) *CacheAwareStore {
	var hasMax bool
	var maxCount uint32
	if len(entries) > 0 && entries[len(entries)-1].ID == sentinel {
		hasMax = true
		maxCount = entries[len(entries)-1].Count
		entries = entries[:len(entries)-1]
	}
	n := len(entries)
	// Number of nodes needed to hold n keys, B per node, in a complete
	// (B+1)-ary tree.
	nodes := (n + Branching - 1) / Branching
	if nodes == 0 {
		nodes = 1
	}
	c := &CacheAwareStore{
		keys:     make([]kmer.ID, nodes*Branching),
		counts:   make([]uint32, nodes*Branching),
		n:        n,
		hasMax:   hasMax,
		maxCount: maxCount,
	}
	if hasMax {
		c.n++
	}
	for i := range c.keys {
		c.keys[i] = sentinel
	}
	pos := 0
	c.fill(entries, 0, &pos)
	return c
}

// fill performs an in-order walk of the implicit tree, assigning the sorted
// entries so that an in-order traversal of the layout is sorted.
func (c *CacheAwareStore) fill(entries []Entry, node int, pos *int) {
	if node*Branching >= len(c.keys) {
		return
	}
	for slot := 0; slot <= Branching; slot++ {
		child := node*(Branching+1) + 1 + slot
		c.fill(entries, child, pos)
		if slot < Branching && *pos < len(entries) {
			idx := node*Branching + slot
			c.keys[idx] = entries[*pos].ID
			c.counts[idx] = entries[*pos].Count
			*pos++
		}
	}
}

// Count searches the implicit tree: one node (cache line) per level.
func (c *CacheAwareStore) Count(id kmer.ID) (uint32, bool) {
	if id == sentinel {
		return c.maxCount, c.hasMax
	}
	node := 0
	for node*Branching < len(c.keys) {
		base := node * Branching
		slot := 0
		for slot < Branching {
			k := c.keys[base+slot]
			if k == id && k != sentinel {
				return c.counts[base+slot], true
			}
			if k > id { // sentinel is max, so padding routes left correctly
				break
			}
			slot++
		}
		node = node*(Branching+1) + 1 + slot
	}
	return 0, false
}

// Len returns the number of real entries.
func (c *CacheAwareStore) Len() int { return c.n }

// MemBytes returns the padded array footprint.
func (c *CacheAwareStore) MemBytes() int64 {
	return int64(len(c.keys))*EntrySize + 48
}

// EncodeEntries serializes entries for the wire (little-endian, 12 bytes
// each), appending to dst and returning the extended slice.
//
// reptile-lint:hotpath
func EncodeEntries(dst []byte, entries []Entry) []byte {
	for _, e := range entries {
		var buf [EntrySize]byte
		binary.LittleEndian.PutUint64(buf[0:8], uint64(e.ID))
		binary.LittleEndian.PutUint32(buf[8:12], e.Count)
		dst = append(dst, buf[:]...)
	}
	return dst
}

// DecodeEntries parses a wire buffer produced by EncodeEntries.
//
// reptile-lint:hotpath
func DecodeEntries(b []byte) ([]Entry, error) {
	if len(b)%EntrySize != 0 {
		return nil, fmt.Errorf("spectrum: buffer length %d not a multiple of %d", len(b), EntrySize)
	}
	out := make([]Entry, len(b)/EntrySize)
	for i := range out {
		off := i * EntrySize
		out[i] = Entry{
			ID:    kmer.ID(binary.LittleEndian.Uint64(b[off : off+8])),
			Count: binary.LittleEndian.Uint32(b[off+8 : off+12]),
		}
	}
	return out, nil
}
