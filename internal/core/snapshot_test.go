package core

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"reptile/internal/dna"
	"reptile/internal/reads"
	"reptile/internal/snapshot"
	"reptile/internal/stats"
)

// snapshotKeys flattens corrected output to comparable (seq, bases) pairs.
func snapshotKeys(rs []reads.Read) []readKey {
	keys := make([]readKey, len(rs))
	for i := range rs {
		keys[i] = readKey{rs[i].Seq, dna.DecodeString(rs[i].Base)}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].seq < keys[j].seq })
	return keys
}

func sameKeys(t *testing.T, label string, got, want []readKey) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reads, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: read %d differs", label, want[i].seq)
		}
	}
}

// cacheFiles lists the snapshot entries in a cache dir.
func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.rsnap"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestSnapshotCacheColdWarmEquivalence is the tentpole contract: a cold run
// populates the content-hash cache (every rank misses and saves), a warm
// run adopts it (every rank hits, the build phase is skipped), and the
// corrected output is byte-identical across cold, warm, and a no-snapshot
// baseline — over the in-process transport and, warm, over TCP.
func TestSnapshotCacheColdWarmEquivalence(t *testing.T) {
	ds, opts := testDataset(t, 800, 9300)
	const np = 2
	dir := t.TempDir()
	opts.Snapshot = &SnapshotOptions{Dir: dir, InputDigest: snapshot.DigestReads(ds.Reads)}

	base := opts
	base.Snapshot = nil
	baseOut, err := Run(&MemorySource{Reads: ds.Reads}, np, base)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotKeys(baseOut.Corrected())

	cold, err := Run(&MemorySource{Reads: ds.Reads}, np, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameKeys(t, "cold vs baseline", snapshotKeys(cold.Corrected()), want)
	for _, r := range cold.Run.Ranks {
		if r.SnapshotMisses != 1 || r.SnapshotHits != 0 || r.SnapshotSaves != 1 || r.SnapshotBytesWritten == 0 {
			t.Fatalf("cold rank %d: misses=%d hits=%d saves=%d written=%d",
				r.Rank, r.SnapshotMisses, r.SnapshotHits, r.SnapshotSaves, r.SnapshotBytesWritten)
		}
	}
	if files := cacheFiles(t, dir); len(files) != np {
		t.Fatalf("cache holds %d files, want %d", len(files), np)
	}

	warm, err := Run(&MemorySource{Reads: ds.Reads}, np, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameKeys(t, "warm vs baseline", snapshotKeys(warm.Corrected()), want)
	for _, r := range warm.Run.Ranks {
		if r.SnapshotHits != 1 || r.SnapshotMisses != 0 || r.SnapshotSaves != 0 || r.SnapshotBytesRead == 0 {
			t.Fatalf("warm rank %d: hits=%d misses=%d saves=%d read=%d",
				r.Rank, r.SnapshotHits, r.SnapshotMisses, r.SnapshotSaves, r.SnapshotBytesRead)
		}
		if r.OwnedKmers == 0 && r.OwnedTiles == 0 {
			t.Fatalf("warm rank %d adopted empty spectra", r.Rank)
		}
		if r.Wall[stats.PhaseSnapshot] <= 0 {
			t.Fatalf("warm rank %d: snapshot phase not timed", r.Rank)
		}
	}

	// The warm path over TCP: same cache dir, same key, byte-identical.
	tcpGot := runOverTCP(t, &MemorySource{Reads: ds.Reads}, np, opts)
	sameKeys(t, "warm tcp vs baseline", tcpGot, want)
}

// TestSnapshotCorruptionRebuilds pins rebuild-not-crash: a flipped byte, a
// stale format version, or a truncated cache entry all decode to a miss, so
// the run rebuilds (run-wide, keeping the collective schedule aligned),
// heals the cache, and still corrects identically.
func TestSnapshotCorruptionRebuilds(t *testing.T) {
	ds, opts := testDataset(t, 600, 9400)
	const np = 2
	dir := t.TempDir()
	opts.Snapshot = &SnapshotOptions{Dir: dir, InputDigest: snapshot.DigestReads(ds.Reads)}

	cold, err := Run(&MemorySource{Reads: ds.Reads}, np, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotKeys(cold.Corrected())

	corrupt := func(label string, mutate func([]byte) []byte) {
		files := cacheFiles(t, dir)
		if len(files) != np {
			t.Fatalf("%s: cache holds %d files, want %d", label, len(files), np)
		}
		sort.Strings(files)
		b, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(files[0], mutate(b), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := Run(&MemorySource{Reads: ds.Reads}, np, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameKeys(t, label, snapshotKeys(out.Corrected()), want)
		misses := int64(0)
		saves := int64(0)
		for _, r := range out.Run.Ranks {
			misses += r.SnapshotMisses
			saves += r.SnapshotSaves
		}
		// One bad entry forces a run-wide rebuild: every rank misses (the
		// unanimity allreduce) and every rank re-publishes.
		if misses != np || saves != np {
			t.Fatalf("%s: %d misses, %d saves, want %d each", label, misses, saves, np)
		}
	}

	corrupt("flipped byte", func(b []byte) []byte {
		b[len(b)/2] ^= 0x01
		return b
	})
	corrupt("stale version", func(b []byte) []byte {
		b[4], b[5] = 0xFF, 0xFF
		return b
	})
	corrupt("truncated file", func(b []byte) []byte {
		return b[:len(b)*2/3]
	})

	// The healed cache serves hits again.
	warm, err := Run(&MemorySource{Reads: ds.Reads}, np, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range warm.Run.Ranks {
		if r.SnapshotHits != 1 {
			t.Fatalf("healed cache: rank %d hits=%d", r.Rank, r.SnapshotHits)
		}
	}
}

// TestSnapshotExplicitPathMode covers the explicit -snapshot prefix form: the
// first run publishes `<prefix>.r<rank>.rsnap`, the second adopts them, and
// a parameter change (different k) makes the stored header mismatch — a
// miss that rebuilds and overwrites, never an error.
func TestSnapshotExplicitPathMode(t *testing.T) {
	ds, opts := testDataset(t, 600, 9500)
	const np = 2
	prefix := filepath.Join(t.TempDir(), "ecoli")
	opts.Snapshot = &SnapshotOptions{Path: prefix}

	cold, err := Run(&MemorySource{Reads: ds.Reads}, np, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotKeys(cold.Corrected())
	for r := 0; r < np; r++ {
		if _, err := os.Stat(snapshot.RankFile(prefix, r)); err != nil {
			t.Fatal(err)
		}
	}

	warm, err := Run(&MemorySource{Reads: ds.Reads}, np, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameKeys(t, "warm path mode", snapshotKeys(warm.Corrected()), want)
	for _, r := range warm.Run.Ranks {
		if r.SnapshotHits != 1 {
			t.Fatalf("rank %d hits=%d", r.Rank, r.SnapshotHits)
		}
	}

	// Same prefix, different k: the stored params no longer match, so the
	// run must rebuild rather than adopt a spectrum built for another k.
	changed := opts
	changed.Config.Spec.K = 12
	out, err := Run(&MemorySource{Reads: ds.Reads}, np, changed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Run.Ranks {
		if r.SnapshotMisses != 1 || r.SnapshotSaves != 1 {
			t.Fatalf("k change: rank %d misses=%d saves=%d", r.Rank, r.SnapshotMisses, r.SnapshotSaves)
		}
	}
}

// TestSnapshotStreamingWarmRun shares one cache between engines: a batch
// cold run publishes, a streaming warm run adopts (skipping its whole first
// source traversal) and corrects the same reads.
func TestSnapshotStreamingWarmRun(t *testing.T) {
	ds, opts := testDataset(t, 600, 9600)
	const np = 2
	dir := t.TempDir()
	opts.Config.ChunkReads = 100
	opts.Snapshot = &SnapshotOptions{Dir: dir, InputDigest: snapshot.DigestReads(ds.Reads)}

	cold, err := Run(&MemorySource{Reads: ds.Reads}, np, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotKeys(cold.Corrected())

	sinks, factory := collectSinks(np)
	sout, err := RunStreaming(&MemorySource{Reads: ds.Reads}, np, opts, factory)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sout.Run.Ranks {
		if r.SnapshotHits != 1 {
			t.Fatalf("streaming rank %d hits=%d", r.Rank, r.SnapshotHits)
		}
		if r.Wall[stats.PhaseSpectrum] <= 0 {
			t.Fatalf("streaming rank %d: spectrum phase not timed", r.Rank)
		}
	}
	var streamed []reads.Read
	for _, s := range sinks {
		streamed = append(streamed, s.Reads...)
	}
	sameKeys(t, "streaming warm vs batch cold", snapshotKeys(streamed), want)
}

// TestSnapshotOptionValidation pins the option-set gate.
func TestSnapshotOptionValidation(t *testing.T) {
	_, opts := testDataset(t, 10, 9700)
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"neither dir nor path", func(o *Options) { o.Snapshot = &SnapshotOptions{} }},
		{"both dir and path", func(o *Options) { o.Snapshot = &SnapshotOptions{Dir: "d", Path: "p"} }},
		{"auto thresholds", func(o *Options) {
			o.Snapshot = &SnapshotOptions{Path: "p"}
			o.AutoThresholds = true
		}},
		{"retained reads tables", func(o *Options) {
			o.Snapshot = &SnapshotOptions{Path: "p"}
			o.Heuristics.RetainReadKmers = true
		}},
	}
	for _, tc := range cases {
		o := opts
		tc.mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Dir mode without a digest passes Validate (the digest needs I/O the
	// validator must not do) but fails the run with a clear error.
	o := opts
	o.Snapshot = &SnapshotOptions{Dir: t.TempDir()}
	ds, _ := testDataset(t, 50, 9800)
	if _, err := Run(&MemorySource{Reads: ds.Reads}, 2, o); err == nil {
		t.Error("cache mode without an input digest ran")
	}
}
