package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"reptile/internal/core"
	"reptile/internal/fastaio"
	"reptile/internal/genome"
	"reptile/internal/stats"
)

type shape int

const (
	shapeBatch shape = iota
	shapeStream
)

// workload is one named input and traffic shape. Every workload runs np=4
// ranks with LookupBatch=32, Workers=1 and load balancing: one worker keeps
// message counts exact from run to run.
type workload struct {
	name        string
	shape       shape
	preset      genome.Preset
	scale       float64
	np          int
	lookupBatch int
	workers     int
	// serve, when set, adds the resident-service calibration to the
	// workload's traced run.
	serve *serveShape
}

// serveShape is the served path the traced batch-proc run measures on the
// same reads: a rank group over loopback TCP, warm from a snapshot cache
// filled before timing, behind the front door. Two client connections
// offer a fixed load in an open loop, then run closed loop.
type serveShape struct {
	chunkReads    int     // reads per front-door chunk
	conns         int     // client connections; no more than the 2 CPUs the workload was sized on
	offeredRate   float64 // reads/s offered in the open-loop phase
	sessionChunks int     // chunks per client session
	setupReps     int     // service set-ups; serve.setup_s is their median
	open          time.Duration
	saturate      time.Duration
}

// The workloads and why each is here:
//   - batch-proc is the paper's own shape: build and correct both on the
//     critical path, proc ranks, a frozen spectrum that fits in L2. Its
//     traced run also measures the served path (front door, sessions, TCP
//     rank links, snapshot load) on the same reads.
//   - stream-files is the paper's memory-scalable mode: per-chunk build and
//     exchange rounds, fasta/qual parsing and sink writes, and the only
//     spectrum larger than L2.
//
// A served workload with end-to-end bounds was tried and left out: on a
// shared 2-CPU host its chunk latencies moved 20-40% between sets of runs
// with the host's speed, more than any bound a regression gate can use.
var workloads = []*workload{
	{
		name: "batch-proc", shape: shapeBatch, preset: genome.EColiSim, scale: 0.25,
		serve: &serveShape{
			chunkReads: 64, conns: 2, offeredRate: 6000, sessionChunks: 16, setupReps: 5,
			open: 10 * time.Second, saturate: 5 * time.Second,
		},
	},
	{name: "stream-files", shape: shapeStream, preset: genome.HumanSim, scale: 0.1},
}

func init() {
	for _, w := range workloads {
		w.np, w.lookupBatch, w.workers = 4, 32, 1
	}
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			cp := *w
			return &cp, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// params is the workload description every result is stamped with.
func (w *workload) params(in *input) map[string]any {
	p := map[string]any{
		"dataset": w.preset.Name, "scale": w.scale, "reads": len(in.ds.Reads),
		"np": w.np, "lookup_batch": w.lookupBatch, "workers": w.workers,
		"load_balance": in.opts.LoadBalance, "transport": "proc",
		"k": in.opts.Config.Spec.K, "kmer_threshold": in.opts.Config.KmerThreshold,
		"tile_threshold": in.opts.Config.TileThreshold,
	}
	if s := w.serve; s != nil {
		p["traced_serve"] = map[string]any{
			"transport": "tcp", "chunk_reads": s.chunkReads, "conns": s.conns,
			"offered_reads_per_s": s.offeredRate, "session_chunks": s.sessionChunks,
			"setup_reps": s.setupReps, "open_s": s.open.Seconds(), "saturate_s": s.saturate.Seconds(),
		}
	}
	return p
}

// outcome is one run's verdict and metrics.
type outcome struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	ledger            func(w *os.File)
}

// run executes one benchmark run of w. With a tracer it reports the
// per-layer metrics, otherwise the end-to-end ones.
func run(w *workload, seed int64, seconds float64, tr *tracer, dir string) (*input, *outcome, error) {
	in, err := makeInput(w, seed)
	if err != nil {
		return nil, nil, err
	}
	if w.shape == shapeStream {
		if in.fasta, in.qual, err = writeInputPair(in, dir); err != nil {
			return nil, nil, err
		}
	}
	var cal *calib
	if tr != nil {
		if cal, err = calibrate(in, w, dir, tr); err != nil {
			return nil, nil, err
		}
	}
	jr, err := runJobs(in, w, seconds, tr, dir)
	if err != nil {
		return nil, nil, err
	}
	o := jobOutcome(in, w, jr, cal)
	if tr != nil && w.serve != nil {
		sr, err := runServe(in, w.serve, w.np, seed, tr, dir)
		if err != nil {
			return nil, nil, err
		}
		addServe(o, sr)
	}
	return in, o, nil
}

// writeInputPair writes the workload's reads as the fasta/qual pair the
// streaming workload reads.
func writeInputPair(in *input, dir string) (fasta, qual string, err error) {
	return fastaio.WriteDataset(dir, "input", in.ds.Reads)
}

// tailPct is the latency percentile reported beside the median. p99 over
// the ~2,000 open-loop chunks of a run swung by half its value between runs
// on a shared 2-CPU host, because one scheduling stall delays every chunk
// queued behind it; p95 keeps about 100 chunks beyond it and repeats.
const tailPct = 95

// jobOutcome derives a batch or streaming run's metrics. An operation is a
// job, so the latency metrics are job latencies.
func jobOutcome(in *input, w *workload, jr *jobRun, cal *calib) *outcome {
	o := &outcome{correct: true, metrics: map[string]float64{}}
	var rps, setup, lat, mem, heap, tracedRPS []float64
	var cpu time.Duration
	reads := 0
	var runs []*stats.Run
	for i := range jr.jobs {
		js := &jr.jobs[i]
		o.attempted++
		if js.err != nil {
			o.failed++
			o.correct = false
			fmt.Fprintf(os.Stderr, "perfbench: job %d failed: %v\n", i, js.err)
			lat = append(lat, math.Inf(1))
			continue
		}
		cpu += js.cpu
		reads += js.reads
		if js.traced {
			tracedRPS = append(tracedRPS, float64(js.reads)/js.wall.Seconds())
			runs = append(runs, &js.run)
			continue
		}
		rps = append(rps, float64(js.reads)/js.wall.Seconds())
		setup = append(setup, buildWall(&js.run).Seconds())
		lat = append(lat, ms(js.wall))
		mem = append(mem, float64(js.run.Max(func(r *stats.Rank) int64 { return r.PeakMemBytes }))/mib)
		heap = append(heap, js.heap/mib)
	}
	if cal != nil {
		o.metrics = layerMetrics(cal, runs, float64(len(in.ds.Reads)))
		addRuntime(o.metrics, jr.rt, float64(reads))
		o.metrics["trace.overhead_frac"] = 1 - ratio(median(tracedRPS), median(rps))
		o.ledger = func(f *os.File) { printLedger(f, w, cal, o.metrics) }
		return o
	}
	o.metrics["reads_per_s"] = median(rps)
	o.metrics["setup_s"] = median(setup)
	o.metrics["chunk_p50_ms"] = median(lat)
	o.metrics["chunk_p95_ms"] = nearestRank(lat, tailPct)
	o.metrics["cpu_us_per_read"] = ratio(float64(cpu.Microseconds()), float64(reads))
	o.metrics["rank_mem_peak_mib"] = median(mem)
	o.metrics["resident_heap_mib"] = median(heap)
	o.metrics["correction_gain"] = jr.gain
	o.metrics["ok_frac"] = float64(o.attempted-o.failed) / float64(o.attempted)
	return o
}

// addServe folds the traced run's served-path calibration into its
// per-layer metrics; its chunks count as operations of the run.
func addServe(o *outcome, sr *serveRun) {
	var due, svc, late []float64
	okOpen := 0
	for _, c := range sr.open {
		due = append(due, c.latency())
		svc = append(svc, c.serviceTime())
		late = append(late, ms(c.sent-c.due))
		if c.ok {
			okOpen++
		}
	}
	failed := len(sr.open) - okOpen + sr.satFailed
	o.attempted += len(sr.open) + sr.satChunks
	o.failed += failed
	o.correct = o.correct && failed == 0
	run := rankRun(sr.outs)
	served := float64(run.Sum(func(r *stats.Rank) int64 { return r.SessionReads }))
	m := o.metrics
	m["core.session.chunk_p50_ms"] = median(sr.sessionChunkMs)
	m["core.session.open_ms"] = median(sr.sessionOpenMs)
	m["core.service.session_p50_ms"] = ms(sr.svcStats.P50)
	m["core.service.session_p99_ms"] = ms(sr.svcStats.P99)
	m["core.service.rejected"] = float64(sr.svcStats.Rejected)
	m["serve.reads_per_s"] = median(sr.satRates)
	m["serve.setup_s"] = median(sr.setups)
	m["serve.due_p50_ms"] = median(due)
	m["serve.due_p95_ms"] = nearestRank(due, tailPct)
	m["serve.resident_heap_mib"] = sr.residentMiB
	m["serve.chunk_p50_ms"] = median(svc)
	m["serve.frontdoor_ms"] = m["serve.chunk_p50_ms"] - m["core.session.chunk_p50_ms"]
	m["serve.open_ms"] = median(sr.openMs)
	m["serve.dial_ms"] = median(sr.dialMs)
	m["transport.tcp_msgs_per_read"] = float64(run.Sum(func(r *stats.Rank) int64 { return r.MsgsSent })) / served
	m["transport.tcp_bytes_per_read"] = float64(run.Sum(func(r *stats.Rank) int64 { return r.BytesSent })) / served
	m["snapshot.load_ms"] = sr.snapLoadMs
	m["snapshot.bytes_per_entry"] = ratio(float64(sr.snapBytes), float64(sr.snapEntries))
	m["snapshot.hits"] = float64(run.Sum(func(r *stats.Rank) int64 { return r.SnapshotHits }))
	m["loadgen.offered_reads_per_s"] = sr.offered
	m["loadgen.achieved_reads_per_s"] = float64(okReads(sr.open)) / sr.openWall.Seconds()
	m["loadgen.late_p99_ms"] = nearestRank(late, 99)
}

// rankRun folds the drained ranks' counters into one stats.Run, each phase
// wall the maximum across ranks as the engine's own launcher reports it.
func rankRun(outs []*core.RankOutput) *stats.Run {
	run := &stats.Run{}
	for _, ro := range outs {
		run.Ranks = append(run.Ranks, ro.Stats)
		for p := range run.Wall {
			run.Wall[p] = max(run.Wall[p], ro.Stats.Wall[p])
		}
	}
	return run
}

// workDir makes this run's scratch directory under the benchmark's output
// directory.
func workDir(out string, w *workload, seed int64) (string, error) {
	dir := filepath.Join(out, "work", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
