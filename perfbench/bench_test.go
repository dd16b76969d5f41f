package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"reptile/internal/snapshot"
	"reptile/internal/stats"
)

// small returns a named workload shrunk to test size.
func small(t *testing.T, name string) *workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.scale /= 12
	if w.serve != nil {
		s := *w.serve
		s.setupReps, s.open, s.saturate = 2, time.Second, time.Second
		w.serve = &s
	}
	return w
}

func TestOpenScheduleDueTimes(t *testing.T) {
	rate := 6000.0 / 64
	dur := 4 * time.Second
	s := openSchedule(7, rate, 2, dur)
	interval := time.Duration(2 / rate * float64(time.Second))
	total := 0
	for c, dues := range s {
		total += len(dues)
		for i, d := range dues {
			if d < 0 || d >= dur {
				t.Fatalf("conn %d chunk %d due at %v, outside [0, %v)", c, i, d, dur)
			}
			if i > 0 && d-dues[i-1] < interval/2 {
				t.Fatalf("conn %d chunks %d and %d only %v apart; interval is %v", c, i-1, i, d-dues[i-1], interval)
			}
		}
	}
	if want := rate * dur.Seconds(); math.Abs(float64(total)-want) > 2 {
		t.Fatalf("schedule offers %d chunks in %v, want %.0f", total, dur, want)
	}
	if !slices.EqualFunc(s, openSchedule(7, rate, 2, dur), slices.Equal[[]time.Duration]) {
		t.Fatal("the same seed gave a different schedule")
	}
	if slices.EqualFunc(s, openSchedule(8, rate, 2, dur), slices.Equal[[]time.Duration]) {
		t.Fatal("another seed gave the same schedule")
	}
}

func TestLatencyRunsFromDueTime(t *testing.T) {
	late := chunkResult{due: 10 * time.Millisecond, sent: 25 * time.Millisecond, done: 30 * time.Millisecond, ok: true}
	if got := late.latency(); got != 20 {
		t.Fatalf("latency %v ms, want 20 (from due, not from send)", got)
	}
	if got := late.serviceTime(); got != 5 {
		t.Fatalf("service time %v ms, want 5", got)
	}
	failed := chunkResult{due: 10 * time.Millisecond, sent: 10 * time.Millisecond, done: 11 * time.Millisecond}
	if !math.IsInf(failed.latency(), 1) || !math.IsInf(failed.serviceTime(), 1) {
		t.Fatal("a failed chunk must count as infinitely late")
	}
	// 6 failures in 100 chunks put the tail percentile past every finite
	// latency: the misses show in the tail instead of vanishing from it.
	var lat []float64
	for i := 0; i < 94; i++ {
		lat = append(lat, 1)
	}
	for i := 0; i < 6; i++ {
		lat = append(lat, failed.latency())
	}
	if !math.IsInf(nearestRank(lat, tailPct), 1) {
		t.Fatalf("p%d ignores failed chunks", tailPct)
	}
	if median(lat) != 1 {
		t.Fatalf("median %v, want 1", median(lat))
	}
}

func TestWindowRates(t *testing.T) {
	rs := []chunkResult{
		{done: 100 * time.Millisecond, reads: 64, ok: true},
		{done: 200 * time.Millisecond, reads: 64, ok: true},
		{done: 600 * time.Millisecond, reads: 64, ok: true},
		{done: 700 * time.Millisecond, reads: 64},            // failed: not counted
		{done: 1100 * time.Millisecond, reads: 64, ok: true}, // past the last whole window
	}
	got := windowRates(rs, time.Second)
	if want := []float64{256, 128}; !slices.Equal(got, want) {
		t.Fatalf("window rates %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestSeedChangesInputs(t *testing.T) {
	w := small(t, "batch-proc")
	a, err := makeInput(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeInput(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := makeInput(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	da, db, dc := snapshot.DigestReads(a.ds.Reads), snapshot.DigestReads(b.ds.Reads), snapshot.DigestReads(c.ds.Reads)
	if da != db {
		t.Fatal("the same seed generated different reads")
	}
	if da == dc {
		t.Fatal("a different seed generated the same reads")
	}
}

// exactCounts are the figures that must repeat exactly for one seed.
func exactCounts(js jobSample, gain float64) [4]float64 {
	n := float64(js.reads)
	return [4]float64{
		float64(js.run.Sum(func(r *stats.Rank) int64 { return r.MsgsSent })) / n,
		float64(js.run.Sum(func(r *stats.Rank) int64 { return r.BytesSent })) / n,
		float64(js.run.Max(func(r *stats.Rank) int64 { return r.PeakMemBytes })),
		gain,
	}
}

func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine four times")
	}
	for _, name := range []string{"batch-proc", "stream-files"} {
		t.Run(name, func(t *testing.T) {
			w := small(t, name)
			var got [][4]float64
			for rep := 0; rep < 2; rep++ {
				in, err := makeInput(w, 5)
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				if in.fasta, in.qual, err = writeInputPair(in, dir); err != nil {
					t.Fatal(err)
				}
				var js jobSample
				if name == "batch-proc" {
					js, _ = batchJob(in, w, nil)
				} else {
					js, _ = streamJob(in, w, nil, dir)
				}
				if js.err != nil {
					t.Fatal(js.err)
				}
				gain, err := in.gain(in.ref)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, exactCounts(js, gain))
			}
			if got[0] != got[1] {
				t.Fatalf("msgs/read, bytes/read, rank peak memory, gain differ between runs of one seed: %v vs %v", got[0], got[1])
			}
		})
	}
}

// TestEveryWorkloadRuns runs each workload briefly, untraced and traced,
// and checks the result carries every metric and no failure.
func TestEveryWorkloadRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end runs of every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w := small(t, w.name)
			var tr *tracer
			defs := endToEnd
			if traced {
				tr, defs = newTracer(), perLayer
			}
			_, o, err := run(w, 3, 1.5, tr, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !o.correct || o.failed != 0 || o.attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, o.correct, o.attempted, o.failed)
			}
			for _, d := range defs {
				v, ok := o.metrics[d.Name]
				if !ok || math.IsNaN(v) {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.Name)
				}
			}
			if !traced {
				for _, name := range []string{"reads_per_s", "setup_s", "chunk_p50_ms", "cpu_us_per_read", "rank_mem_peak_mib", "correction_gain"} {
					if o.metrics[name] <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, o.metrics[name])
					}
				}
			}
			if traced && w.serve != nil && o.metrics["snapshot.hits"] != float64(w.np) {
				t.Errorf("%s: snapshot.hits = %v, want %d (the served path starts warm on every rank)", w.name, o.metrics["snapshot.hits"], w.np)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	old := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(old))
		for i, v := range old {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		new    []float64
		higher bool
		want   string
	}{
		{scale(1.3), true, "better"},
		{scale(1.3), false, "worse"},
		{scale(0.7), true, "worse"},
		{scale(1.01), true, "same"},
		{[]float64{50, 150, 60, 140, 100, 70, 130, 80, 120, 100}, true, "unresolved"},
	}
	for i, c := range cases {
		got := verdict(old, c.new, c.higher, 0.1)
		if len(got) < len(c.want) || got[:len(c.want)] != c.want {
			t.Errorf("case %d: verdict %q, want %s", i, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the workloads and metric
// lists the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}
	if !slices.Equal(bf.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", bf.EndToEnd, endToEnd)
	}
	if !slices.Equal(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's %d metrics", len(perLayer))
	}
}
