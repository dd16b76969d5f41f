// Package snapshot serializes a rank's frozen spectra to disk and reloads
// them with near-zero parsing, making the Steps I-III spectrum build a
// cacheable artifact (ROADMAP item 3; cf. unikmer's .unik serialization).
//
// A snapshot is one file per rank:
//
//	magic "RSNP" | version u16 | params header | header CRC32 |
//	k-mer section | tile section
//
// where the params header pins everything the stored slabs depend on — k,
// tile overlap, both solidity thresholds, np, rank, and an owner-hash
// self-check — and each section is `payloadLen u64 | payload CRC32 |
// payload`, the payload being the PackedStore's exact slab image
// (spectrum.ExportSlabs). Loading therefore costs a header validation, two
// checksums, and a slab adoption (spectrum.ImportPackedSlabs): no per-entry
// decode, and the reloaded store answers every probe with the identical
// probe sequence the original would have.
//
// On top of the format sits a content-hash cache: CacheKey folds the input
// digest and every header parameter (plus the format version) into one hex
// key, and CachePath places rank files under a cache directory. Writers go
// through a same-directory temp file and an atomic rename, so concurrent
// runs racing on one cache entry each publish a complete file and the last
// rename wins — readers never observe a torn snapshot.
//
// Every malformed input — bad magic, stale version, checksum mismatch,
// truncation, parameter drift — decodes to a typed error (errors.Is against
// the Err* sentinels), never a panic and never a giant allocation; callers
// treat any of them as a cache miss and rebuild.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"reptile/internal/kmer"
	"reptile/internal/reads"
	"reptile/internal/spectrum"
)

// Version is the on-disk format version. Any layout or semantic change to
// the file bumps it, invalidating every existing cache entry (the version
// participates in CacheKey, so stale entries are simply never looked up —
// and a direct load of an old file fails with ErrVersion).
const Version = 1

// Magic identifies a Reptile spectrum snapshot file (the first four bytes
// of every .rsnap), exported so tools can sniff the format.
var Magic = [4]byte{'R', 'S', 'N', 'P'}

// Typed decode failures. Callers distinguish "not a snapshot at all"
// (ErrFormat), "a snapshot from another format generation" (ErrVersion),
// bit rot (ErrChecksum), a short read or torn file (ErrTruncated), and a
// valid snapshot built under different parameters (ErrParams).
var (
	ErrFormat    = errors.New("snapshot: not a spectrum snapshot")
	ErrVersion   = errors.New("snapshot: unsupported format version")
	ErrChecksum  = errors.New("snapshot: checksum mismatch")
	ErrTruncated = errors.New("snapshot: truncated file")
	ErrParams    = errors.New("snapshot: parameter mismatch")
)

// Params is everything the stored slabs depend on. Two runs with equal
// Params (and equal input) freeze byte-identical stores, which is what
// makes the snapshot safe to adopt in place of a build.
type Params struct {
	K             int
	Overlap       int
	KmerThreshold uint32
	TileThreshold uint32
	NP            int
	Rank          int
}

// ownerHashCheck is a self-check of the owner-hash function: the low 32
// bits of HashID over a fixed probe. If the hash ever changes, the slab
// layouts and the owner partition both shift, so every old snapshot must be
// rejected — the stored check no longer matches.
func ownerHashCheck() uint32 {
	return uint32(kmer.HashID(kmer.ID(0x9E3779B97F4A7C15)))
}

// Fixed header geometry, after the 4-byte magic and 2-byte version:
// k u16 | overlap u16 | kmerThr u32 | tileThr u32 | np u32 | rank u32 |
// ownerHash u32 | headerCRC u32.
const (
	hdrParamsBytes = 2 + 2 + 4 + 4 + 4 + 4 + 4
	hdrBytes       = 4 + 2 + hdrParamsBytes + 4
	secHdrBytes    = 8 + 4 // payloadLen u64 | payload CRC32
)

// Encode appends the snapshot image of the two frozen stores to buf and
// returns the extended slice.
func Encode(buf []byte, p Params, kmers, tiles *spectrum.PackedStore) []byte {
	buf = append(buf, Magic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	paramsStart := len(buf)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(p.K))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(p.Overlap))
	buf = binary.LittleEndian.AppendUint32(buf, p.KmerThreshold)
	buf = binary.LittleEndian.AppendUint32(buf, p.TileThreshold)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.NP))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Rank))
	buf = binary.LittleEndian.AppendUint32(buf, ownerHashCheck())
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[paramsStart:]))
	for _, store := range []*spectrum.PackedStore{kmers, tiles} {
		secStart := len(buf)
		buf = append(buf, make([]byte, secHdrBytes)...)
		buf = store.ExportSlabs(buf)
		payload := buf[secStart+secHdrBytes:]
		binary.LittleEndian.PutUint64(buf[secStart:], uint64(len(payload)))
		binary.LittleEndian.PutUint32(buf[secStart+8:], crc32.ChecksumIEEE(payload))
	}
	return buf
}

// decodeParams validates magic, version, and the header checksum, returning
// the stored parameters and the remainder of b (the first section).
func decodeParams(b []byte) (Params, []byte, error) {
	var p Params
	if len(b) < hdrBytes {
		return p, nil, fmt.Errorf("%w: %d bytes, shorter than the %d-byte header", ErrTruncated, len(b), hdrBytes)
	}
	if [4]byte(b[0:4]) != Magic {
		return p, nil, fmt.Errorf("%w: bad magic %q", ErrFormat, b[0:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != Version {
		return p, nil, fmt.Errorf("%w: file version %d, this build reads %d", ErrVersion, v, Version)
	}
	params := b[6 : 6+hdrParamsBytes]
	if got, want := crc32.ChecksumIEEE(params), binary.LittleEndian.Uint32(b[6+hdrParamsBytes:hdrBytes]); got != want {
		return p, nil, fmt.Errorf("%w: header CRC %08x, stored %08x", ErrChecksum, got, want)
	}
	p.K = int(binary.LittleEndian.Uint16(params[0:2]))
	p.Overlap = int(binary.LittleEndian.Uint16(params[2:4]))
	p.KmerThreshold = binary.LittleEndian.Uint32(params[4:8])
	p.TileThreshold = binary.LittleEndian.Uint32(params[8:12])
	p.NP = int(binary.LittleEndian.Uint32(params[12:16]))
	p.Rank = int(binary.LittleEndian.Uint32(params[16:20]))
	if check := binary.LittleEndian.Uint32(params[20:24]); check != ownerHashCheck() {
		return p, nil, fmt.Errorf("%w: owner-hash check %08x, this build computes %08x", ErrParams, check, ownerHashCheck())
	}
	return p, b[hdrBytes:], nil
}

// decodeSection verifies one section's length and checksum, adopts its slab
// image, and returns the store plus the remainder of b.
func decodeSection(b []byte, name string) (*spectrum.PackedStore, []byte, error) {
	if len(b) < secHdrBytes {
		return nil, nil, fmt.Errorf("%w: %d bytes left for the %s section header", ErrTruncated, len(b), name)
	}
	n := binary.LittleEndian.Uint64(b[0:8])
	want := binary.LittleEndian.Uint32(b[8:12])
	rest := b[secHdrBytes:]
	// Length check before touching the payload: a hostile length cannot
	// slice past the buffer or drive a giant allocation (ImportPackedSlabs
	// re-validates the slab header against the same bound).
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: %s section claims %d payload bytes, %d remain", ErrTruncated, name, n, len(rest))
	}
	payload := rest[:n]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, nil, fmt.Errorf("%w: %s section CRC %08x, stored %08x", ErrChecksum, name, got, want)
	}
	store, tail, err := spectrum.ImportPackedSlabs(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: %s section: %w", name, err)
	}
	if len(tail) != 0 {
		return nil, nil, fmt.Errorf("%w: %s section carries %d bytes past its slab image", ErrFormat, name, len(tail))
	}
	return store, rest[n:], nil
}

// Decode parses a full snapshot image: header, k-mer section, tile section,
// nothing trailing.
func Decode(b []byte) (Params, *spectrum.PackedStore, *spectrum.PackedStore, error) {
	p, rest, err := decodeParams(b)
	if err != nil {
		return p, nil, nil, err
	}
	kmers, rest, err := decodeSection(rest, "k-mer")
	if err != nil {
		return p, nil, nil, err
	}
	tiles, rest, err := decodeSection(rest, "tile")
	if err != nil {
		return p, nil, nil, err
	}
	if len(rest) != 0 {
		return p, nil, nil, fmt.Errorf("%w: %d bytes after the tile section", ErrFormat, len(rest))
	}
	return p, kmers, tiles, nil
}

// Write atomically publishes the snapshot at path: the image is written to
// a temp file in the same directory, synced, and renamed into place, so a
// reader never sees a partial file and concurrent writers of the same entry
// simply race to an identical result. Returns the bytes written.
func Write(path string, p Params, kmers, tiles *spectrum.PackedStore) (int64, error) {
	buf := Encode(nil, p, kmers, tiles)
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	_, werr := f.Write(buf)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		return 0, werr
	}
	return int64(len(buf)), nil
}

// Read loads and decodes the snapshot at path, returning the stores and the
// file size.
func Read(path string) (Params, *spectrum.PackedStore, *spectrum.PackedStore, int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Params{}, nil, nil, 0, err
	}
	p, kmers, tiles, err := Decode(b)
	return p, kmers, tiles, int64(len(b)), err
}

// ReadParams decodes only the header of the snapshot at path — enough for
// an info listing without adopting the slabs.
func ReadParams(path string) (Params, error) {
	f, err := os.Open(path)
	if err != nil {
		return Params{}, err
	}
	defer f.Close()
	hdr := make([]byte, hdrBytes)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return Params{}, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	p, _, err := decodeParams(hdr)
	return p, err
}

// CacheKey derives the content-hash cache key: a hex digest over the input
// digest, every build parameter the slabs depend on, the owner-hash check,
// and the format version. Rank is deliberately excluded — one key names the
// whole run's entry, with per-rank files placed by CachePath — and any
// parameter change, input change, or format bump lands on a fresh key, so
// invalidation is purely additive (stale entries are never consulted).
func CacheKey(inputDigest string, p Params) string {
	h := sha256.New()
	fmt.Fprintf(h, "reptile-snapshot|v%d|owner%08x|in:%s|k%d|o%d|kt%d|tt%d|np%d",
		Version, ownerHashCheck(), inputDigest, p.K, p.Overlap, p.KmerThreshold, p.TileThreshold, p.NP)
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// RankFile names one rank's snapshot under an explicit path prefix
// (reptile-correct -snapshot, reptile-spectrum build).
func RankFile(prefix string, rank int) string {
	return fmt.Sprintf("%s.r%d.rsnap", prefix, rank)
}

// CachePath names one rank's snapshot inside a cache directory.
func CachePath(dir, key string, rank int) string {
	return filepath.Join(dir, RankFile(key, rank))
}

// DigestFiles streams the named files (in order) through sha256 — the input
// digest for file-backed runs. Path names are folded in too, so swapping
// the fasta and qual arguments cannot alias a key.
func DigestFiles(paths ...string) (string, error) {
	h := sha256.New()
	for _, path := range paths {
		if path == "" {
			continue
		}
		fmt.Fprintf(h, "file:%s|", path)
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// DigestReads digests an in-memory read set — the input digest for
// MemorySource runs (tests, the harness).
func DigestReads(rs []reads.Read) string {
	h := sha256.New()
	var num [8]byte
	var scratch []byte
	for i := range rs {
		binary.LittleEndian.PutUint64(num[:], uint64(rs[i].Seq))
		h.Write(num[:])
		binary.LittleEndian.PutUint64(num[:], uint64(len(rs[i].Base)))
		h.Write(num[:])
		scratch = scratch[:0]
		for _, b := range rs[i].Base {
			scratch = append(scratch, byte(b))
		}
		h.Write(scratch)
		h.Write(rs[i].Qual)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
