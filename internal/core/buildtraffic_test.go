package core

import "testing"

// TestBuildTrafficPinnedCounters pins the build-side traffic of two seeded
// np=4 runs — a streaming run with several chunks per rank and a
// BatchReads in-memory run — so a change to the spectrum round loop or the
// read-balance exchange cannot move a message, a byte, or a table peak
// without the pins saying so. Every value is a sum over the four ranks.
func TestBuildTrafficPinnedCounters(t *testing.T) {
	ds, opts := testDataset(t, 1500, 4343)
	opts.Config.ChunkReads = 100

	sinks, factory := collectSinks(4)
	stream, err := RunStreaming(&MemorySource{Reads: ds.Reads}, 4, opts, factory)
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	for _, s := range sinks {
		streamed += len(s.Reads)
	}
	if streamed != len(ds.Reads) {
		t.Fatalf("streamed %d reads, want %d", streamed, len(ds.Reads))
	}

	batchOpts := opts
	batchOpts.Heuristics.BatchReads = true
	batch, err := Run(&MemorySource{Reads: ds.Reads}, 4, batchOpts)
	if err != nil {
		t.Fatal(err)
	}

	for _, run := range []struct {
		name string
		out  *Output
		want [10]int64
	}{
		{"streaming", stream, [10]int64{42764, 808659, 362675, 94629, 1125, 531425, 13055, 12319, 7765, 7822}},
		{"batch-reads", batch, [10]int64{42638, 799326, 354134, 92424, 1125, 522884, 12731, 11895, 7765, 7822}},
	} {
		sum := func(f func(r *statsRank) int64) int64 { return run.out.Run.Sum(f) }
		for i, c := range []struct {
			name string
			got  int64
		}{
			{"MsgsSent", sum(func(r *statsRank) int64 { return r.MsgsSent })},
			{"BytesSent", sum(func(r *statsRank) int64 { return r.BytesSent })},
			{"SpecBytesSent", sum(func(r *statsRank) int64 { return r.SpecBytesSent })},
			{"SpecEntriesSent", sum(func(r *statsRank) int64 { return r.SpecEntriesSent })},
			{"ReadsExchanged", sum(func(r *statsRank) int64 { return r.ReadsExchanged })},
			{"ExchangeBytes", sum(func(r *statsRank) int64 { return r.ExchangeBytes })},
			{"ReadsKmers", sum(func(r *statsRank) int64 { return r.ReadsKmers })},
			{"ReadsTiles", sum(func(r *statsRank) int64 { return r.ReadsTiles })},
			{"OwnedKmers", sum(func(r *statsRank) int64 { return r.OwnedKmers })},
			{"OwnedTiles", sum(func(r *statsRank) int64 { return r.OwnedTiles })},
		} {
			if c.got != run.want[i] {
				t.Errorf("%s: %s = %d, pinned %d", run.name, c.name, c.got, run.want[i])
			}
		}
	}
}
