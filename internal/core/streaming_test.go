package core

import (
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"reptile/internal/dna"
	"reptile/internal/fastaio"
	"reptile/internal/transport"
)

func collectSinks(np int) ([]*CollectSink, SinkFactory) {
	sinks := make([]*CollectSink, np)
	for i := range sinks {
		sinks[i] = &CollectSink{}
	}
	return sinks, func(rank int) (Sink, error) { return sinks[rank], nil }
}

func TestStreamingMatchesInMemoryRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short: heavyweight end-to-end run (race CI budget)")
	}
	ds, opts := testDataset(t, 3000, 6000)
	opts.Config.ChunkReads = 200 // several streaming rounds per rank

	for _, c := range []struct {
		name string
		src  Source
	}{
		{"even", &MemorySource{Reads: ds.Reads}},
		// Rank 0 streams every chunk while the other ranks hit EOF in
		// round 0: the unequal-rounds case of the open-ended round loop.
		{"skewed", &skewSource{rs: ds.Reads}},
	} {
		t.Run(c.name, func(t *testing.T) {
			mem, err := Run(c.src, 4, opts)
			if err != nil {
				t.Fatal(err)
			}
			sinks, factory := collectSinks(4)
			stream, err := RunStreaming(c.src, 4, opts, factory)
			if err != nil {
				t.Fatal(err)
			}

			var streamed []readKey
			for _, s := range sinks {
				for i := range s.Reads {
					streamed = append(streamed, readKey{s.Reads[i].Seq, dna.DecodeString(s.Reads[i].Base)})
				}
			}
			sort.Slice(streamed, func(i, j int) bool { return streamed[i].seq < streamed[j].seq })
			want := mem.Corrected()
			if len(streamed) != len(want) {
				t.Fatalf("streamed %d reads, in-memory %d", len(streamed), len(want))
			}
			for i := range want {
				if streamed[i].seq != want[i].Seq || streamed[i].bases != dna.DecodeString(want[i].Base) {
					t.Fatalf("read %d differs between streaming and in-memory runs", want[i].Seq)
				}
			}
			if stream.Result.BasesCorrected != mem.Result.BasesCorrected {
				t.Errorf("streaming corrected %d bases, in-memory %d", stream.Result.BasesCorrected, mem.Result.BasesCorrected)
			}
		})
	}
}

type readKey struct {
	seq   int64
	bases string
}

func TestStreamingWithoutBalance(t *testing.T) {
	ds, opts := testDataset(t, 1500, 6100)
	opts.LoadBalance = false
	opts.Config.ChunkReads = 100
	sinks, factory := collectSinks(4)
	out, err := RunStreaming(&MemorySource{Reads: ds.Reads}, 4, opts, factory)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range sinks {
		total += len(s.Reads)
	}
	if total != len(ds.Reads) {
		t.Errorf("streamed %d reads, want %d", total, len(ds.Reads))
	}
	if out.Result.BasesCorrected == 0 {
		t.Error("corrected nothing")
	}
}

func TestStreamingFromFiles(t *testing.T) {
	ds, opts := testDataset(t, 1500, 6200)
	opts.Config.ChunkReads = 128
	fa, qual, err := fastaio.WriteDataset(t.TempDir(), ds.Name, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	sinks, factory := collectSinks(4)
	out, err := RunStreaming(&FileSource{FastaPath: fa, QualPath: qual}, 4, opts, factory)
	if err != nil {
		t.Fatal(err)
	}
	var corrected []readKey
	for _, s := range sinks {
		for i := range s.Reads {
			corrected = append(corrected, readKey{s.Reads[i].Seq, dna.DecodeString(s.Reads[i].Base)})
		}
	}
	if len(corrected) != len(ds.Reads) {
		t.Fatalf("streamed %d reads, want %d", len(corrected), len(ds.Reads))
	}
	if out.Result.BasesCorrected == 0 {
		t.Error("file streaming corrected nothing")
	}
}

func TestStreamingHeuristicsWork(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short: heavyweight end-to-end run (race CI budget)")
	}
	ds, opts := testDataset(t, 1200, 6300)
	opts.Config.ChunkReads = 100
	base, err := RunStreaming(&MemorySource{Reads: ds.Reads}, 4, opts, discardFactory())
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]Heuristics{
		"universal": {Universal: true},
		"repl-both": {ReplicateKmers: true, ReplicateTiles: true},
		"cache":     {RetainReadKmers: true, CacheRemote: true},
	} {
		o := opts
		o.Heuristics = h
		out, err := RunStreaming(&MemorySource{Reads: ds.Reads}, 4, o, discardFactory())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Result.BasesCorrected != base.Result.BasesCorrected {
			t.Errorf("%s: corrected %d, base %d", name, out.Result.BasesCorrected, base.Result.BasesCorrected)
		}
	}
}

func discardFactory() SinkFactory {
	return func(int) (Sink, error) { return &CollectSink{}, nil }
}

func TestStreamingRequiresSink(t *testing.T) {
	_, opts := testDataset(t, 10, 6400)
	eps, err := transport.NewProcGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	defer transport.CloseGroup(eps)
	if _, err := RunRankStreaming(eps[0], &MemorySource{}, opts, nil); err == nil {
		t.Error("nil sink accepted")
	}
}

func TestFileSinkRoundTrip(t *testing.T) {
	ds, opts := testDataset(t, 800, 6600)
	opts.Config.ChunkReads = 128
	dir := t.TempDir()
	factory := func(rank int) (Sink, error) {
		return NewFileSink(fmt.Sprintf("%s/out.rank%d", dir, rank))
	}
	out, err := RunStreaming(&MemorySource{Reads: ds.Reads}, 3, opts, factory)
	if err != nil {
		t.Fatal(err)
	}
	// Every per-rank output pair must parse back, and together they must
	// cover the whole dataset exactly once.
	seen := map[int64]bool{}
	for rank := 0; rank < 3; rank++ {
		prefix := fmt.Sprintf("%s/out.rank%d", dir, rank)
		// Streaming outputs are completion-ordered, not seq-sorted, so
		// parse with the record scanner rather than the sharding reader.
		f, err := os.Open(prefix + ".fa")
		if err != nil {
			t.Fatal(err)
		}
		sc := fastaio.NewScanner(f)
		for {
			rec, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("rank %d output unreadable: %v", rank, err)
			}
			if seen[rec.Seq] {
				t.Fatalf("read %d appears twice", rec.Seq)
			}
			seen[rec.Seq] = true
			if len(rec.Body) != len(ds.Reads[rec.Seq-1].Base) {
				t.Fatalf("read %d length changed", rec.Seq)
			}
		}
		f.Close()
	}
	if len(seen) != len(ds.Reads) {
		t.Fatalf("outputs cover %d reads, want %d", len(seen), len(ds.Reads))
	}
	if out.Result.BasesCorrected == 0 {
		t.Error("corrected nothing")
	}
}

// TestStreamingOverTCP drives the streaming pipeline across real sockets:
// the chunk-boundary collectives and the live responder share connections.
func TestStreamingOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp integration")
	}
	ds, opts := testDataset(t, 900, 6700)
	opts.Config.ChunkReads = 100
	const np = 3
	addrs := make([]string, np)
	lns := make([]net.Listener, np)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	src := &MemorySource{Reads: ds.Reads}
	sinks := make([]*CollectSink, np)
	var wg sync.WaitGroup
	errs := make([]error, np)
	var corrected int64
	var mu sync.Mutex
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			e, err := transport.NewTCP(transport.TCPConfig{Rank: r, Addrs: addrs, DialTimeout: 10 * time.Second})
			if err != nil {
				errs[r] = err
				return
			}
			defer e.Close()
			sinks[r] = &CollectSink{}
			out, err := RunRankStreaming(e, src, opts, sinks[r])
			if err != nil {
				errs[r] = err
				return
			}
			mu.Lock()
			corrected += out.Result.BasesCorrected
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	total := 0
	for _, s := range sinks {
		total += len(s.Reads)
	}
	if total != len(ds.Reads) {
		t.Errorf("streamed %d reads over tcp, want %d", total, len(ds.Reads))
	}
	if corrected == 0 {
		t.Error("corrected nothing over tcp")
	}
}

func TestStreamingBoundsMemoryBelowInMemoryRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short: heavyweight end-to-end run (race CI budget)")
	}
	// The point of the mode: with retained tables off, peak table memory in
	// streaming mode must not exceed the unbatched in-memory run's peak
	// (which holds the full readsKmer/readsTile tables at the exchange).
	ds, opts := testDataset(t, 3000, 6500)
	opts.Config.ChunkReads = 100
	mem, err := Run(&MemorySource{Reads: ds.Reads}, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := RunStreaming(&MemorySource{Reads: ds.Reads}, 4, opts, discardFactory())
	if err != nil {
		t.Fatal(err)
	}
	mPeak := mem.Run.Max(func(r *statsRank) int64 { return r.PeakMemBytes })
	sPeak := stream.Run.Max(func(r *statsRank) int64 { return r.PeakMemBytes })
	if sPeak > mPeak {
		t.Errorf("streaming peak %d above in-memory peak %d", sPeak, mPeak)
	}
}
