package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"reptile/internal/core"
	"reptile/internal/reads"
	"reptile/internal/stats"
)

// jobSample is one batch or streaming job as the benchmark saw it.
type jobSample struct {
	wall   time.Duration // launcher wall time of the program call
	cpu    time.Duration // process user+sys CPU over the call
	reads  int           // reads the job corrected
	run    stats.Run     // the program's own counters for the job
	heap   float64       // peak Go live heap above the pre-job baseline, bytes
	traced bool
	err    error // program error or output mismatch
}

// jobRun is every job of one measured window plus the runtime deltas.
type jobRun struct {
	jobs []jobSample
	gain float64
	rt   runtimeDelta
}

// runJobs runs closed-loop jobs, one in flight, after one untimed warm-up
// job, until the window has passed; a job is started only while at least
// half of it fits in the window. In a traced run jobs alternate untraced
// and traced, so the tracing overhead is measured inside one run.
func runJobs(in *input, w *workload, seconds float64, tr *tracer, dir string) (*jobRun, error) {
	job := func(tr *tracer) (jobSample, []reads.Read) {
		if w.shape == shapeStream {
			return streamJob(in, w, tr, dir)
		}
		return batchJob(in, w, tr)
	}
	if js, _ := job(nil); js.err != nil {
		return nil, fmt.Errorf("warm-up job: %w", js.err)
	}
	jr := &jobRun{gain: -1}
	window := time.Duration(seconds * float64(time.Second))
	minJobs := 1
	if tr != nil {
		minJobs = 2
	}
	rt0 := readRuntime()
	start := time.Now()
	var last time.Duration
	for i := 0; i < minJobs || time.Since(start)+last/2 < window; i++ {
		var jt *tracer
		if tr != nil && i%2 == 1 {
			jt = tr
		}
		js, out := job(jt)
		js.traced = jt != nil
		last = js.wall
		if js.err == nil && jr.gain < 0 {
			g, err := in.gain(out)
			if err != nil {
				return nil, err
			}
			jr.gain = g
		}
		jr.jobs = append(jr.jobs, js)
	}
	jr.rt = readRuntime().sub(rt0)
	return jr, nil
}

// batchJob runs one in-memory core.Run job over proc ranks.
func batchJob(in *input, w *workload, tr *tracer) (jobSample, []reads.Read) {
	trace := tr.newTrace()
	root := tr.start("job", trace, 0)
	defer tr.end(root)
	base := settle()
	hp := watchLiveHeap()
	c0 := cpuTime()
	t0 := time.Now()
	sp := tr.start("core.Run", trace, root)
	out, err := core.Run(&core.MemorySource{Reads: in.ds.Reads}, w.np, in.opts)
	tr.end(sp)
	js := jobSample{wall: time.Since(t0), cpu: cpuTime() - c0}
	js.heap = float64(hp.finish()) - float64(base)
	if err != nil {
		js.err = err
		return js, nil
	}
	js.run = out.Run
	var all []reads.Read
	for _, b := range out.ByRank {
		all = append(all, b...)
	}
	js.reads = len(all)
	sp = tr.start("bench.check", trace, root)
	js.err = in.checkAll(all)
	tr.end(sp)
	return js, all
}

// streamJob runs one core.RunStreaming job from the workload's fasta/qual
// pair into per-rank core.FileSinks, then reads the sinks back.
func streamJob(in *input, w *workload, tr *tracer, dir string) (jobSample, []reads.Read) {
	trace := tr.newTrace()
	root := tr.start("job", trace, 0)
	defer tr.end(root)
	src := &core.FileSource{FastaPath: in.fasta, QualPath: in.qual}
	prefix := func(rank int) string { return filepath.Join(dir, fmt.Sprintf("out.r%d", rank)) }
	sinks := func(rank int) (core.Sink, error) { return core.NewFileSink(prefix(rank)) }
	base := settle()
	hp := watchLiveHeap()
	c0 := cpuTime()
	t0 := time.Now()
	sp := tr.start("core.RunStreaming", trace, root)
	out, err := core.RunStreaming(src, w.np, in.opts, sinks)
	tr.end(sp)
	js := jobSample{wall: time.Since(t0), cpu: cpuTime() - c0}
	js.heap = float64(hp.finish()) - float64(base)
	if err != nil {
		js.err = err
		return js, nil
	}
	js.run = out.Run
	sp = tr.start("bench.check", trace, root)
	defer tr.end(sp)
	var all []reads.Read
	for r := 0; r < w.np; r++ {
		rs, err := readSinkFiles(prefix(r)+".fa", prefix(r)+".qual")
		if err != nil {
			js.err = err
			return js, nil
		}
		all = append(all, rs...)
	}
	js.reads = len(all)
	js.err = in.checkAll(all)
	return js, all
}

// buildWall is the time until the spectra are frozen: the per-phase walls
// (each the maximum across ranks) of every phase before correction.
func buildWall(r *stats.Run) time.Duration {
	return r.Wall[stats.PhaseRead] + r.Wall[stats.PhaseBalance] + r.Wall[stats.PhaseSnapshot] +
		r.Wall[stats.PhaseSpectrum] + r.Wall[stats.PhaseExchange]
}

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: getrusage:", err)
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const liveHeapMetric = "/gc/heap/live:bytes"

// settle forces a collection so every job starts from the same heap and
// returns the live heap it left.
func settle() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapWatch samples the live heap the last collection marked, keeping the
// peak; the value only changes at a collection, so a few-ms period sees
// nearly every cycle.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // written by the watcher goroutine, read after done closes
}

func watchLiveHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: liveHeapMetric}}
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the watcher and returns the peak it saw.
func (h *heapWatch) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// runtimeDelta is the Go runtime's own accounting over a window.
type runtimeDelta struct {
	allocs, allocBytes, gcCycles float64
	gcCPU, totalCPU              float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeDelta{allocs: v(0), allocBytes: v(1), gcCycles: v(2), gcCPU: v(3), totalCPU: v(4)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocs: a.allocs - b.allocs, allocBytes: a.allocBytes - b.allocBytes, gcCycles: a.gcCycles - b.gcCycles,
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU,
	}
}
