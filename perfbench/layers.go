package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"reptile/internal/core"
	"reptile/internal/fastaio"
	"reptile/internal/kmer"
	"reptile/internal/reads"
	"reptile/internal/reptile"
	"reptile/internal/spectrum"
	"reptile/internal/stats"
)

// metricDef names one metric with its unit and the direction that is
// better. The lists below are the benchmark's contract with BENCHMARK.json.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the system sees, reported with
// tracing off.
var endToEnd = []metricDef{
	{"reads_per_s", "reads/s", "higher"},
	{"setup_s", "s", "lower"},
	{"chunk_p50_ms", "ms", "lower"},
	{"chunk_p95_ms", "ms", "lower"},
	{"cpu_us_per_read", "us", "lower"},
	{"rank_mem_peak_mib", "MiB", "lower"},
	{"resident_heap_mib", "MiB", "lower"},
	{"correction_gain", "ratio", "higher"},
	{"ok_frac", "ratio", "higher"},
}

// perLayer are the traced run's metrics, one group per module. A layer a
// workload bypasses reports 0; the serve, session and snapshot layers and
// the TCP transport are measured by batch-proc's served-path calibration.
var perLayer = []metricDef{
	{"reptile.floor_us_per_read", "us", "lower"},
	{"reptile.build_floor_ms", "ms", "lower"},
	{"reptile.bases_corrected", "count", "higher"},
	{"reptile.tiles_repaired", "count", "higher"},
	{"spectrum.probe_ns", "ns", "lower"},
	{"spectrum.hit_ratio", "ratio", "higher"},
	{"spectrum.owned_mib", "MiB", "lower"},
	{"spectrum.bytes_per_entry", "B", "lower"},
	{"core.build.read_ms", "ms", "lower"},
	{"core.build.balance_ms", "ms", "lower"},
	{"core.build.spectrum_ms", "ms", "lower"},
	{"core.build.exchange_ms", "ms", "lower"},
	{"core.build.x_floor", "ratio", "lower"},
	{"core.build.mem_at_freeze_mib", "MiB", "lower"},
	{"core.build.kmers_extracted_per_read", "count", "lower"},
	{"collective.exchange_bytes_per_read", "B", "lower"},
	{"collective.spec_wire_bytes_per_entry", "B", "lower"},
	{"collective.reads_exchanged_frac", "ratio", "lower"},
	{"core.correct.wall_ms", "ms", "lower"},
	{"core.correct.us_per_read", "us", "lower"},
	{"core.correct.x_floor", "ratio", "lower"},
	{"core.correct.remote_lookups_per_read", "count", "lower"},
	{"core.correct.local_frac", "ratio", "higher"},
	{"core.correct.remote_miss_frac", "ratio", "lower"},
	{"core.correct.ids_per_frame", "count", "higher"},
	{"core.correct.frames_per_read", "count", "lower"},
	{"core.correct.rank_imbalance", "ratio", "lower"},
	{"transport.msgs_per_read", "count", "lower"},
	{"transport.bytes_per_read", "B", "lower"},
	{"transport.max_inbox_depth", "count", "lower"},
	{"transport.tcp_msgs_per_read", "count", "lower"},
	{"transport.tcp_bytes_per_read", "B", "lower"},
	{"core.session.chunk_p50_ms", "ms", "lower"},
	{"core.session.open_ms", "ms", "lower"},
	{"core.service.session_p50_ms", "ms", "lower"},
	{"core.service.session_p99_ms", "ms", "lower"},
	{"core.service.rejected", "count", "lower"},
	{"serve.reads_per_s", "reads/s", "higher"},
	{"serve.setup_s", "s", "lower"},
	{"serve.due_p50_ms", "ms", "lower"},
	{"serve.due_p95_ms", "ms", "lower"},
	{"serve.resident_heap_mib", "MiB", "lower"},
	{"serve.chunk_p50_ms", "ms", "lower"},
	{"serve.frontdoor_ms", "ms", "lower"},
	{"serve.open_ms", "ms", "lower"},
	{"serve.dial_ms", "ms", "lower"},
	{"snapshot.load_ms", "ms", "lower"},
	{"snapshot.bytes_per_entry", "B", "lower"},
	{"snapshot.hits", "count", "higher"},
	{"fastaio.parse_mb_per_s", "MB/s", "higher"},
	{"sink.write_mb_per_s", "MB/s", "higher"},
	{"go.allocs_per_read", "count", "lower"},
	{"go.alloc_bytes_per_read", "B", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"loadgen.offered_reads_per_s", "reads/s", "higher"},
	{"loadgen.achieved_reads_per_s", "reads/s", "higher"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// calib holds the traced run's calibrations on the workload's own reads:
// the sequential floor, the spectrum probe, and for stream-files the file
// layers.
type calib struct {
	floorUsPerRead float64
	buildFloorMs   float64
	floorRes       reptile.Result
	probeNs        float64
	hitRatio       float64
	parseMBps      float64
	sinkMBps       float64
}

// floorReps is how many times the sequential floor is timed; its median is
// reported.
const floorReps = 3

// calibrate measures the layers the benchmark can call on their own.
func calibrate(in *input, w *workload, dir string, tr *tracer) (*calib, error) {
	cal := &calib{}
	cfg := in.opts.Config
	trace := tr.newTrace()
	var builds, corrects []float64
	var kmers, tiles *spectrum.HashStore
	for rep := 0; rep < floorReps; rep++ {
		t0 := time.Now()
		sp := tr.start("reptile.BuildSpectra", trace, 0)
		kmers, tiles = reptile.BuildSpectra(in.ds.Reads, cfg)
		tr.end(sp)
		builds = append(builds, ms(time.Since(t0)))
		c, err := reptile.NewCorrector(cfg, &reptile.LocalOracle{Kmers: kmers, Tiles: tiles})
		if err != nil {
			return nil, err
		}
		batch := make([]reads.Read, len(in.ds.Reads))
		for i := range batch {
			batch[i] = in.ds.Reads[i].Clone()
		}
		t1 := time.Now()
		sp = tr.start("reptile.Corrector.CorrectBatch", trace, 0)
		cal.floorRes = c.CorrectBatch(batch)
		tr.end(sp)
		corrects = append(corrects, float64(time.Since(t1).Nanoseconds())/1e3/float64(len(batch)))
		if err := in.checkAll(batch); err != nil {
			return nil, fmt.Errorf("sequential floor: %w", err)
		}
	}
	cal.buildFloorMs, cal.floorUsPerRead = median(builds), median(corrects)
	cal.probeNs, cal.hitRatio = probe(in, w, kmers, tiles, tr, trace)

	if w.shape == shapeStream {
		if err := cal.files(in, w, dir, tr, trace); err != nil {
			return nil, err
		}
	}
	return cal, nil
}

// probe times PackedStore.Count on stores the size of one rank's shard,
// probing every k-mer and tile id of the reads that rank 0 owns — the ids
// its responder answers.
func probe(in *input, w *workload, kmers, tiles *spectrum.HashStore, tr *tracer, trace int64) (ns, hit float64) {
	shard := func(h *spectrum.HashStore) *spectrum.PackedStore {
		var own []spectrum.Entry
		for _, e := range h.Entries() {
			if kmer.Owner(e.ID, w.np) == 0 {
				own = append(own, e)
			}
		}
		return spectrum.NewPacked(own)
	}
	pk, pt := shard(kmers), shard(tiles)
	spec := in.opts.Config.Spec
	var kids, tids []kmer.ID
	for i := range in.ds.Reads {
		spec.EachKmer(in.ds.Reads[i].Base, func(_ int, id kmer.ID) {
			if kmer.Owner(id, w.np) == 0 {
				kids = append(kids, id)
			}
		})
		spec.EachTileStep(in.ds.Reads[i].Base, 1, func(_ int, id kmer.ID) {
			if kmer.Owner(id, w.np) == 0 {
				tids = append(tids, id)
			}
		})
	}
	const passes = 5
	hits := 0
	sp := tr.start("spectrum.PackedStore.Count", trace, 0)
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for _, id := range kids {
			if _, ok := pk.Count(id); ok {
				hits++
			}
		}
		for _, id := range tids {
			if _, ok := pt.Count(id); ok {
				hits++
			}
		}
	}
	el := time.Since(t0)
	tr.end(sp)
	n := float64(passes * (len(kids) + len(tids)))
	return float64(el.Nanoseconds()) / n, float64(hits) / n
}

// files times fastaio.ReadShard for every rank of the input pair and a
// core.FileSink writing the reference reads.
func (cal *calib) files(in *input, w *workload, dir string, tr *tracer, trace int64) error {
	size := func(paths ...string) (float64, error) {
		var n int64
		for _, p := range paths {
			st, err := os.Stat(p)
			if err != nil {
				return 0, err
			}
			n += st.Size()
		}
		return float64(n), nil
	}
	inBytes, err := size(in.fasta, in.qual)
	if err != nil {
		return err
	}
	t0 := time.Now()
	got := 0
	for r := 0; r < w.np; r++ {
		sp := tr.start("fastaio.ReadShard", trace, 0)
		rs, err := fastaio.ReadShard(in.fasta, in.qual, r, w.np)
		tr.end(sp)
		if err != nil {
			return err
		}
		got += len(rs)
	}
	cal.parseMBps = inBytes / 1e6 / time.Since(t0).Seconds()
	if got != len(in.ds.Reads) {
		return fmt.Errorf("ReadShard returned %d reads of %d", got, len(in.ds.Reads))
	}

	prefix := filepath.Join(dir, "sinkcal")
	t1 := time.Now()
	sp := tr.start("core.FileSink.Write", trace, 0)
	sink, err := core.NewFileSink(prefix)
	if err != nil {
		return err
	}
	chunk := in.opts.Config.ChunkReads
	for lo := 0; lo < len(in.ref); lo += chunk {
		if err := sink.Write(in.ref[lo:min(lo+chunk, len(in.ref))]); err != nil {
			return fmt.Errorf("sink write: %w; close: %v", err, sink.Close())
		}
	}
	if err := sink.Close(); err != nil {
		return err
	}
	tr.end(sp)
	el := time.Since(t1)
	outBytes, err := size(prefix+".fa", prefix+".qual")
	if err != nil {
		return err
	}
	cal.sinkMBps = outBytes / 1e6 / el.Seconds()
	return nil
}

// layerMetrics derives every per-layer metric from the program's counters
// of the traced jobs (median over jobs) and the calibrations. n is the
// reads the counters cover.
func layerMetrics(cal *calib, runs []*stats.Run, n float64) map[string]float64 {
	per := map[string][]float64{}
	for _, r := range runs {
		for k, v := range runCounters(r, n) {
			per[k] = append(per[k], v)
		}
	}
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	for k, vs := range per {
		m[k] = median(vs)
	}
	var build []float64
	for _, r := range runs {
		build = append(build, ms(buildWall(r)))
	}
	m["core.build.x_floor"] = ratio(median(build), cal.buildFloorMs)
	m["reptile.floor_us_per_read"] = cal.floorUsPerRead
	m["reptile.build_floor_ms"] = cal.buildFloorMs
	m["reptile.bases_corrected"] = float64(cal.floorRes.BasesCorrected)
	m["reptile.tiles_repaired"] = float64(cal.floorRes.TilesRepaired)
	m["spectrum.probe_ns"] = cal.probeNs
	m["spectrum.hit_ratio"] = cal.hitRatio
	m["fastaio.parse_mb_per_s"] = cal.parseMBps
	m["sink.write_mb_per_s"] = cal.sinkMBps
	m["core.correct.x_floor"] = ratio(m["core.correct.us_per_read"], cal.floorUsPerRead)
	return m
}

// runCounters turns one run's stats into per-read layer figures.
func runCounters(r *stats.Run, n float64) map[string]float64 {
	sum := func(f func(*stats.Rank) int64) float64 { return float64(r.Sum(f)) }
	mx := func(f func(*stats.Rank) int64) float64 { return float64(r.Max(f)) }
	local := sum((*stats.Rank).TotalLocalLookups)
	remote := sum((*stats.Rank).TotalRemoteLookups)
	var lookups []float64
	for i := range r.Ranks {
		lookups = append(lookups, float64(r.Ranks[i].TotalLocalLookups()+r.Ranks[i].TotalRemoteLookups()))
	}
	correctMs := ms(r.Wall[stats.PhaseCorrect])
	return map[string]float64{
		"spectrum.owned_mib":                   mx(func(x *stats.Rank) int64 { return x.OwnedMemBytes }) / mib,
		"spectrum.bytes_per_entry":             ratio(sum(func(x *stats.Rank) int64 { return x.OwnedMemBytes }), sum(func(x *stats.Rank) int64 { return x.OwnedKmers + x.OwnedTiles })),
		"core.build.read_ms":                   ms(r.Wall[stats.PhaseRead]),
		"core.build.balance_ms":                ms(r.Wall[stats.PhaseBalance]),
		"core.build.spectrum_ms":               ms(r.Wall[stats.PhaseSpectrum]),
		"core.build.exchange_ms":               ms(r.Wall[stats.PhaseExchange]),
		"core.build.total_ms":                  ms(buildWall(r)),
		"core.build.mem_at_freeze_mib":         mx(func(x *stats.Rank) int64 { return x.MemAtFreeze }) / mib,
		"core.build.kmers_extracted_per_read":  sum(func(x *stats.Rank) int64 { return x.KmersExtracted }) / n,
		"collective.exchange_bytes_per_read":   sum(func(x *stats.Rank) int64 { return x.ExchangeBytes }) / n,
		"collective.spec_wire_bytes_per_entry": ratio(sum(func(x *stats.Rank) int64 { return x.SpecBytesSent }), sum(func(x *stats.Rank) int64 { return x.SpecEntriesSent })),
		"collective.reads_exchanged_frac":      sum(func(x *stats.Rank) int64 { return x.ReadsExchanged }) / n,
		"core.correct.wall_ms":                 correctMs,
		"core.correct.us_per_read":             correctMs * 1e3 / n,
		"core.correct.remote_lookups_per_read": remote / n,
		"core.correct.local_frac":              ratio(local, local+remote),
		"core.correct.remote_miss_frac":        ratio(sum(func(x *stats.Rank) int64 { return x.RemoteMisses }), remote),
		"core.correct.ids_per_frame":           ratio(sum(func(x *stats.Rank) int64 { return x.BatchedLookups }), sum(func(x *stats.Rank) int64 { return x.BatchesSent })),
		"core.correct.frames_per_read":         sum(func(x *stats.Rank) int64 { return x.BatchesSent }) / n,
		"core.correct.rank_imbalance":          ratio(slices.Max(lookups), (local+remote)/float64(len(lookups))),
		"transport.msgs_per_read":              sum(func(x *stats.Rank) int64 { return x.MsgsSent }) / n,
		"transport.bytes_per_read":             sum(func(x *stats.Rank) int64 { return x.BytesSent }) / n,
		"transport.max_inbox_depth":            mx(func(x *stats.Rank) int64 { return x.MaxInboxDepth }),
	}
}

// addRuntime adds the Go runtime's own figures over the measured window.
func addRuntime(m map[string]float64, rt runtimeDelta, reads float64) {
	m["go.allocs_per_read"] = ratio(rt.allocs, reads)
	m["go.alloc_bytes_per_read"] = ratio(rt.allocBytes, reads)
	m["go.gc_cycles"] = rt.gcCycles
	m["go.gc_cpu_frac"] = ratio(rt.gcCPU, rt.totalCPU)
}

// printLedger prints the per-read cost ledger: each layer peeled off in
// turn, every ratio with its base.
func printLedger(f *os.File, w *workload, cal *calib, m map[string]float64) {
	floor := cal.floorUsPerRead
	fmt.Fprintf(f, "ledger %s (per read)\n", w.name)
	fmt.Fprintf(f, "  %-34s %10.3f us/read\n", "reptile floor (CorrectBatch)", floor)
	cu := m["core.correct.us_per_read"]
	fmt.Fprintf(f, "  %-34s %10.3f us/read  = %.1fx floor (%.3f / %.3f us)\n", "distributed correct phase", cu, ratio(cu, floor), cu, floor)
	bf := cal.buildFloorMs
	bt := m["core.build.x_floor"] * bf
	fmt.Fprintf(f, "  %-34s %10.3f ms       = %.2fx floor build (%.3f / %.3f ms)\n", "distributed build to freeze", bt, m["core.build.x_floor"], bt, bf)
	if w.shape == shapeStream {
		fmt.Fprintf(f, "  %-34s %10.1f MB/s, sink %.1f MB/s\n", "fastaio parse", cal.parseMBps, cal.sinkMBps)
	}
	if s := w.serve; s != nil {
		sess := m["core.session.chunk_p50_ms"] * 1e3 / float64(s.chunkReads)
		served := m["serve.chunk_p50_ms"] * 1e3 / float64(s.chunkReads)
		fmt.Fprintf(f, "  %-34s %10.3f us/read  = %.1fx floor (%.3f / %.3f us)\n", "in-process session chunk (p50)", sess, ratio(sess, floor), sess, floor)
		fmt.Fprintf(f, "  %-34s %10.3f us/read  = %.1fx session (%.3f / %.3f us), front door +%.3f us\n",
			"served chunk via front door (p50)", served, ratio(served, sess), served, sess, served-sess)
		fmt.Fprintf(f, "  %-34s %10.3f ms       for %d rank files\n", "snapshot load", m["snapshot.load_ms"], w.np)
	}
}
