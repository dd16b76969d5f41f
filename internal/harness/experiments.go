package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"reptile/internal/core"
	"reptile/internal/dna"
	"reptile/internal/genome"
	"reptile/internal/kmer"
	"reptile/internal/machine"
	"reptile/internal/spectrum"
	"reptile/internal/stats"
	"reptile/internal/transport"
)

// TableI reproduces the dataset table: reads, read length, genome size,
// coverage — at this run's scale, with the paper's originals as reference.
func TableI(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "table1",
		Title:  "Datasets (scaled synthetic equivalents)",
		Note:   "paper: E.Coli 8.87M reads/4.6e6 genome/96X, Drosophila 95.7M/1.22e8/75X, Human 1.55B/3.3e9/47X",
		Header: []string{"dataset", "reads", "length", "genome", "coverage", "errors injected"},
	}
	for _, p := range genome.Presets {
		ds := buildDataset(p, sc, false)
		t.Rows = append(t.Rows, []string{
			ds.Name,
			count(int64(ds.NumReads())),
			count(int64(ds.Profile.ReadLen)),
			count(int64(ds.Genome.Len())),
			fmt.Sprintf("%.0fX", ds.Coverage()),
			count(int64(ds.TotalErrors())),
		})
	}
	return t, nil
}

// Fig2 reproduces the ranks-per-node sweep: one measured run, projected at
// 8/16/32 ranks per node. The paper observes 32 rpn ~30% slower than 8 rpn
// with the slowdown concentrated in communication.
func Fig2(sc Scale) (*Table, error) {
	ds := buildDataset(genome.EColiSim, sc, false)
	np := sc.Ranks(128)
	opts := optionsFor(sc, ds, core.Heuristics{}, true)
	out, err := engineRun(ds, np, opts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig2",
		Title:  fmt.Sprintf("E.Coli, %d ranks, ranks-per-node sweep", np),
		Note:   "32 rpn ~30% slower than 8 rpn; increase comes from communication (paper Fig 2)",
		Header: []string{"ranks/node", "nodes", "construct", "correct", "comm(max)", "total"},
	}
	for _, rpn := range []int{8, 16, 32} {
		// At tiny scales np may be below rpn; the shape still projects
		// (everything lands on one node), keeping the sweep comparable.
		shape := machine.Shape{Ranks: np, RanksPerNode: rpn, ThreadsPerRank: 2}
		p, err := project(out, shape, opts.Heuristics)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			count(int64(rpn)), count(int64(shape.Nodes())),
			secs(p.ConstructTime), secs(p.CorrectTime), secs(p.CommTimeMax), secs(p.TotalTime()),
		})
	}
	return t, nil
}

// Fig3 reproduces the spectrum-distribution figure: per-rank k-mer and tile
// counts and their spread.
func Fig3(sc Scale) (*Table, error) {
	ds := buildDataset(genome.EColiSim, sc, false)
	np := sc.Ranks(128)
	opts := optionsFor(sc, ds, core.Heuristics{}, true)
	out, err := engineRun(ds, np, opts)
	if err != nil {
		return nil, err
	}
	kmers := func(r *stats.Rank) int64 { return r.OwnedKmers }
	tiles := func(r *stats.Rank) int64 { return r.OwnedTiles }
	t := &Table{
		ID:     "fig3",
		Title:  fmt.Sprintf("Per-rank spectrum sizes, %d ranks", np),
		Note:   "paper Fig 3: k-mer spread <1%, tile spread <2% at 128 ranks (full dataset)",
		Header: []string{"spectrum", "total", "min/rank", "max/rank", "spread"},
		Rows: [][]string{
			{"k-mers", count(out.Run.Sum(kmers)), count(out.Run.Min(kmers)), count(out.Run.Max(kmers)), pct(out.Run.SpreadPct(kmers))},
			{"tiles", count(out.Run.Sum(tiles)), count(out.Run.Min(tiles)), count(out.Run.Max(tiles)), pct(out.Run.SpreadPct(tiles))},
		},
	}
	return t, nil
}

// Fig4 reproduces the load-balance figure on an error-localized input:
// fastest/slowest rank times, communication times, errors corrected, and
// remote tile lookups, with and without the static balancing step.
func Fig4(sc Scale) (*Table, error) {
	ds := buildDataset(genome.EColiSim, sc, true) // localized errors
	np := sc.Ranks(128)
	t := &Table{
		ID:     "fig4",
		Title:  fmt.Sprintf("Load balance on/off, %d ranks, error-localized E.Coli", np),
		Note:   "paper Fig 4: imbalanced slowest/fastest ~3.3x (16000s vs 4948s); balanced ranks uniform at 8886s, errors spread <=2%, comm spread <4%",
		Header: []string{"mode", "rank time min", "rank time max", "comm min", "comm max", "errors min", "errors max", "tile lookups max"},
	}
	for _, balanced := range []bool{false, true} {
		opts := optionsFor(sc, ds, core.Heuristics{}, balanced)
		out, err := engineRun(ds, np, opts)
		if err != nil {
			return nil, err
		}
		p, err := project(out, shape32(np), opts.Heuristics)
		if err != nil {
			return nil, err
		}
		minT, maxT := p.PerRank[0].Total(), p.PerRank[0].Total()
		for _, rt := range p.PerRank {
			if rt.Total() < minT {
				minT = rt.Total()
			}
			if rt.Total() > maxT {
				maxT = rt.Total()
			}
		}
		mode := "imbalanced"
		if balanced {
			mode = "balanced"
		}
		errs := func(r *stats.Rank) int64 { return r.BasesCorrected }
		tlook := func(r *stats.Rank) int64 { return r.TileLookupsRemote }
		t.Rows = append(t.Rows, []string{
			mode,
			secs(minT), secs(maxT),
			secs(p.CommTimeMin), secs(p.CommTimeMax),
			count(out.Run.Min(errs)), count(out.Run.Max(errs)),
			count(out.Run.Max(tlook)),
		})
	}
	return t, nil
}

// fig5Modes lists the heuristic rows of Fig 5 with the rank layouts the
// paper ran them at (replication modes drop to 8 or 1 ranks/node because
// they no longer fit at 32).
type fig5Mode struct {
	name  string
	h     core.Heuristics
	rpn   int
	ranks func(np int) int // replication rows ran with fewer total ranks
}

// Fig5 reproduces the heuristics comparison: correction time and the
// highest-footprint rank after construction and after correction.
func Fig5(sc Scale) (*Table, error) {
	ds := buildDataset(genome.EColiSim, sc, false)
	np := sc.Ranks(1024)
	same := func(n int) int { return n }
	quarter := func(n int) int {
		n /= 4
		if n < 2 {
			n = 2
		}
		return n
	}
	modes := []fig5Mode{
		{"base", core.Heuristics{}, 32, same},
		{"universal", core.Heuristics{Universal: true}, 32, same},
		{"read-kmers", core.Heuristics{RetainReadKmers: true}, 32, same},
		{"remote-cache", core.Heuristics{RetainReadKmers: true, CacheRemote: true}, 32, same},
		{"batch-reads", core.Heuristics{BatchReads: true}, 32, same},
		{"repl-kmers", core.Heuristics{ReplicateKmers: true}, 8, quarter},
		{"repl-tiles", core.Heuristics{ReplicateTiles: true}, 8, quarter},
		{"repl-both", core.Heuristics{ReplicateKmers: true, ReplicateTiles: true}, 8, quarter},
		{"partial-repl", core.Heuristics{PartialReplicationGroup: 4}, 32, same},
	}
	t := &Table{
		ID:     "fig5",
		Title:  fmt.Sprintf("Heuristics at ~%d ranks (E.Coli)", np),
		Note:   "paper Fig 5: universal -8.8% time; repl-tiles 975s vs base 1178s; repl-both 58s but 1648 MB/rank; batch-reads lowest memory; repl-kmers slower at 256 ranks (928 MB)",
		Header: []string{"heuristic", "ranks", "rpn", "construct", "correct", "total", "mem post-construct", "mem post-correct"},
	}
	for _, m := range modes {
		n := m.ranks(np)
		opts := optionsFor(sc, ds, m.h, true)
		out, err := engineRun(ds, n, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		rpn := m.rpn
		if rpn > n {
			rpn = n
		}
		shape := machine.Shape{Ranks: n, RanksPerNode: rpn, ThreadsPerRank: 2}
		p, err := project(out, shape, m.h)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			m.name, count(int64(n)), count(int64(rpn)),
			secs(p.ConstructTime), secs(p.CorrectTime), secs(p.TotalTime()),
			mib(out.Run.Max(func(r *stats.Rank) int64 { return r.MemAfterConstruct })),
			mib(out.Run.Max(func(r *stats.Rank) int64 { return r.MemAfterCorrect })),
		})
	}
	return t, nil
}

// scaling runs one preset across a rank sweep, balanced and imbalanced,
// reporting phase times and parallel efficiency (Figs 6-8).
func scaling(id, title, note string, preset genome.Preset, paperRanks []int, h core.Heuristics, sc Scale, imbalancedToo bool) (*Table, error) {
	ds := buildDataset(preset, sc, true) // localized errors: the paper's natural imbalance
	t := &Table{
		ID: id, Title: title, Note: note,
		Header: []string{"ranks", "nodes", "construct", "correct", "total", "efficiency", "imbalanced total"},
	}
	var baseRanks int
	var baseTime float64
	seen := map[int]bool{}
	for _, pr := range paperRanks {
		np := sc.Ranks(pr)
		if seen[np] {
			continue // rank scaling saturated MaxRanks
		}
		seen[np] = true
		opts := optionsFor(sc, ds, h, true)
		out, err := engineRun(ds, np, opts)
		if err != nil {
			return nil, err
		}
		p, err := project(out, shape32(np), h)
		if err != nil {
			return nil, err
		}
		imbCell := "-"
		if imbalancedToo {
			iopts := optionsFor(sc, ds, h, false)
			iout, err := engineRun(ds, np, iopts)
			if err != nil {
				return nil, err
			}
			ip, err := project(iout, shape32(np), h)
			if err != nil {
				return nil, err
			}
			imbCell = secs(ip.TotalTime())
		}
		if baseRanks == 0 {
			baseRanks, baseTime = np, p.TotalTime()
		}
		t.Rows = append(t.Rows, []string{
			count(int64(np)), count(int64(shape32(np).Nodes())),
			secs(p.ConstructTime), secs(p.CorrectTime), secs(p.TotalTime()),
			fmt.Sprintf("%.2f", machine.Efficiency(baseRanks, baseTime, np, p.TotalTime())),
			imbCell,
		})
	}
	return t, nil
}

// Fig6 is E.Coli strong scaling, 1024-8192 paper ranks, balanced vs
// imbalanced.
func Fig6(sc Scale) (*Table, error) {
	return scaling("fig6", "E.Coli strong scaling (balanced vs imbalanced)",
		"paper Fig 6: 32->256 nodes; ~200s at 8192 ranks; parallel efficiency 0.81; imbalanced >2x slower at 32 nodes",
		genome.EColiSim, []int{1024, 2048, 4096, 8192}, core.Heuristics{}, sc, true)
}

// Fig7 is Drosophila strong scaling with the batch-reads heuristic.
func Fig7(sc Scale) (*Table, error) {
	return scaling("fig7", "Drosophila strong scaling (batch-reads)",
		"paper Fig 7: 1024->8192 ranks; ~600s at 8192; efficiency 0.64; imbalanced runs 7x slower or DNF",
		genome.DrosophilaSim, []int{1024, 2048, 4096, 8192}, core.Heuristics{BatchReads: true}, sc, true)
}

// Fig8 is Human strong scaling with batch-reads and balancing.
func Fig8(sc Scale) (*Table, error) {
	return scaling("fig8", "Human strong scaling (batch-reads)",
		"paper Fig 8: 4096->32768 ranks (128-1024 nodes); <2.5h on one rack; memory ~120 MB/rank at top",
		genome.HumanSim, []int{4096, 8192, 16384, 32768}, core.Heuristics{BatchReads: true}, sc, false)
}

// Lookup measures the batched remote-lookup pipeline (software message
// aggregation over the paper's Step IV protocol). With the replication
// heuristics off every spectrum miss is request traffic, so the
// correction-phase message count per read is the direct cost of the
// one-at-a-time protocol; batching must cut it while correcting exactly the
// same bases. Reported per mode: correction-phase request messages and
// bytes per read, batch frames and their mean aggregation factor, and the
// message reduction against the unbatched baseline.
func Lookup(sc Scale) (*Table, error) {
	ds := buildDataset(genome.EColiSim, sc, false)
	np := sc.Ranks(128)
	if np < 4 {
		np = 4 // below this most lookups are local and there is nothing to coalesce
	}
	modes := []struct {
		name string
		h    core.Heuristics
	}{
		{"unbatched", core.Heuristics{}},
		{"batch=8", core.Heuristics{LookupBatch: 8}},
		{"batch=32", core.Heuristics{LookupBatch: 32}},
		{"batch=32 workers=4", core.Heuristics{LookupBatch: 32, Workers: 4}},
	}
	t := &Table{
		ID:    "lookup",
		Title: fmt.Sprintf("Remote-lookup batching, %d ranks (E.Coli, no replication)", np),
		Note: "new to this implementation (cf. diBELLA's message aggregation); enforced bars: byte-identical output for " +
			"every mode, batch=32 cuts correction messages per read >=2x, and the worker pool's reduction is at least the " +
			"single worker's (the rank-wide prefetch plane re-coalesces what per-worker buffers fragmented)",
		Header: []string{"mode", "msgs/read", "bytes/read", "frames", "ids/frame", "msg reduction", "bases corrected"},
	}
	correctMsgs := func(out *core.Output) (msgs, bytes int64) {
		for i := range out.Run.Ranks {
			r := &out.Run.Ranks[i]
			for _, m := range r.MsgsTo {
				msgs += m
			}
			for _, b := range r.BytesTo {
				bytes += b
			}
		}
		return
	}
	var baseMsgs, baseCorrected int64
	reductions := make([]float64, len(modes))
	for i, m := range modes {
		opts := optionsFor(sc, ds, m.h, true)
		out, err := engineRun(ds, np, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		msgs, bytes := correctMsgs(out)
		if i == 0 {
			baseMsgs, baseCorrected = msgs, out.Result.BasesCorrected
		} else if out.Result.BasesCorrected != baseCorrected {
			return nil, fmt.Errorf("%s: corrected %d bases, unbatched %d — batching changed the output",
				m.name, out.Result.BasesCorrected, baseCorrected)
		}
		nr := float64(ds.NumReads())
		frames := out.Run.Sum(func(r *stats.Rank) int64 { return r.BatchesSent })
		ids := out.Run.Sum(func(r *stats.Rank) int64 { return r.BatchedLookups })
		perFrame := 0.0
		if frames > 0 {
			perFrame = float64(ids) / float64(frames)
		}
		reductions[i] = 1.0
		if i > 0 && msgs > 0 {
			reductions[i] = float64(baseMsgs) / float64(msgs)
		}
		t.Rows = append(t.Rows, []string{
			m.name,
			fmt.Sprintf("%.2f", float64(msgs)/nr),
			fmt.Sprintf("%.1f", float64(bytes)/nr),
			count(frames),
			fmt.Sprintf("%.1f", perFrame),
			fmt.Sprintf("%.2fx", reductions[i]),
			count(out.Result.BasesCorrected),
		})
	}
	// The bars in the note, enforced: a violated bar fails the experiment so
	// make bench-lookup exits nonzero instead of quietly shipping a
	// regressed BENCH_lookup.json.
	if reductions[2] < 2.0 {
		return t, fmt.Errorf("lookup: batch=32 message reduction %.2fx, bar is >=2x", reductions[2])
	}
	if reductions[3] < reductions[2] {
		return t, fmt.Errorf("lookup: workers=4 reduction %.2fx fell below workers=1's %.2fx — the worker pool is fragmenting batches again",
			reductions[3], reductions[2])
	}
	return t, nil
}

// BatchSweep is the supplementary experiment behind Fig 8's discussion:
// the batch-reads chunk size bounds the reads tables (smaller chunks →
// smaller tables, more collective rounds). The paper used 5000 reads per
// batch at 128-256 nodes and 10000 at 512-1024.
func BatchSweep(sc Scale) (*Table, error) {
	ds := buildDataset(genome.EColiSim, sc, false)
	np := sc.Ranks(1024)
	t := &Table{
		ID:     "batchsweep",
		Title:  fmt.Sprintf("Batch-reads chunk-size sweep, %d ranks (E.Coli)", np),
		Note:   "paper Section III-B / Fig 8 discussion: chunking bounds the reads tables at the cost of more collective rounds",
		Header: []string{"chunk", "rounds/rank", "reads-kmer peak", "reads-tile peak", "exchange MiB", "construct"},
	}
	perRank := (ds.NumReads() + np - 1) / np
	for _, chunk := range []int{perRank + 1, 2000, 500, 125} {
		opts := optionsFor(sc, ds, core.Heuristics{BatchReads: true}, true)
		opts.Config.ChunkReads = chunk
		out, err := engineRun(ds, np, opts)
		if err != nil {
			return nil, err
		}
		p, err := project(out, shape32(np), opts.Heuristics)
		if err != nil {
			return nil, err
		}
		rounds := (perRank + chunk - 1) / chunk
		t.Rows = append(t.Rows, []string{
			count(int64(chunk)), count(int64(rounds)),
			count(out.Run.Max(func(r *stats.Rank) int64 { return r.ReadsKmers })),
			count(out.Run.Max(func(r *stats.Rank) int64 { return r.ReadsTiles })),
			fmt.Sprintf("%.2f", float64(out.Run.Max(func(r *stats.Rank) int64 { return r.ExchangeBytes }))/(1<<20)),
			secs(p.ConstructTime),
		})
	}
	return t, nil
}

// Build-sweep sampling. starvedShare is the CPU share below which a timed
// sample counts as starved by another process: uncontended, the ranks keep
// their usable CPUs busy for most of the spectrum phase (80-99% measured on
// a 2-CPU host, about 50% with a second process saturating it). maxRetakes
// bounds how often a starved sample is taken again; cpuTick is the CPU
// clock's sampling interval during a sample; buildReps is how many samples
// each sweep row takes.
const (
	starvedShare = 0.6
	maxRetakes   = 4
	cpuTick      = 2 * time.Millisecond
	buildReps    = 9
)

// buildSample runs the engine once for the build sweep and reports the
// process CPU share across its spectrum phase: the process CPU (getrusage)
// spent inside the phase's window over the window's wall times the usable
// CPUs. A share below starvedShare means another process took the CPUs the
// build needed — a full `go test ./...` runs other packages' tests beside
// this one — so the spectrum wall says nothing about the build, and the
// sample is retaken, at most maxRetakes times; the last sample stands when
// every retake was starved. Where the platform reports no process CPU the
// share is -1 and the first sample stands.
func buildSample(ds *genome.Dataset, np int, opts core.Options, usable int) (*core.Output, float64, error) {
	for try := 0; ; try++ {
		// Start every sample from a collected heap, so no sample pays for
		// the garbage of the run before it.
		runtime.GC()
		start := time.Now()
		stop := make(chan struct{})
		traced := make(chan []cpuSample, 1)
		go func() { traced <- traceCPU(start, stop) }()
		out, err := engineRun(ds, np, opts)
		close(stop)
		trace := <-traced
		if err != nil {
			return nil, 0, err
		}
		share := -1.0
		if from, to := spectrumWindow(&out.Run); len(trace) > 0 && to > from {
			cpu := cpuAt(trace, to) - cpuAt(trace, from)
			share = cpu.Seconds() / ((to - from).Seconds() * float64(usable))
		}
		if share < 0 || share >= starvedShare || try == maxRetakes {
			return out, share, nil
		}
	}
}

// cpuSample is one reading of the process CPU clock, at an offset from the
// start of a run.
type cpuSample struct{ at, cpu time.Duration }

// traceCPU reads the process CPU clock every cpuTick from start until stop
// closes, with a last reading at the close. It returns nil where the
// platform reports no process CPU.
func traceCPU(start time.Time, stop <-chan struct{}) []cpuSample {
	tick := time.NewTicker(cpuTick)
	defer tick.Stop()
	var trace []cpuSample
	for {
		cpu, ok := processCPU()
		if !ok {
			return nil
		}
		trace = append(trace, cpuSample{time.Since(start), cpu})
		select {
		case <-stop:
			cpu, _ := processCPU()
			return append(trace, cpuSample{time.Since(start), cpu})
		case <-tick.C:
		}
	}
}

// cpuAt interpolates the process CPU clock at offset t of a trace.
func cpuAt(trace []cpuSample, t time.Duration) time.Duration {
	i := sort.Search(len(trace), func(i int) bool { return trace[i].at >= t })
	if i == 0 {
		return trace[0].cpu
	}
	if i == len(trace) {
		return trace[i-1].cpu
	}
	a, b := trace[i-1], trace[i]
	return a.cpu + time.Duration(float64(b.cpu-a.cpu)*float64(t-a.at)/float64(b.at-a.at))
}

// spectrumWindow is a run's spectrum phase as offsets from the run's start,
// from the first rank entering the phase to the last rank leaving it. Each
// rank's phases run back to back, so a rank enters the spectrum phase once
// its earlier phases' walls have passed.
func spectrumWindow(run *stats.Run) (from, to time.Duration) {
	for i := range run.Ranks {
		w := &run.Ranks[i].Wall
		enter := w[stats.PhaseRead] + w[stats.PhaseBalance] + w[stats.PhaseSnapshot]
		if i == 0 || enter < from {
			from = enter
		}
		to = max(to, enter+w[stats.PhaseSpectrum])
	}
	return from, to
}

// cpuShare formats a build sample's CPU share, "-" where it is unknown.
func cpuShare(share float64) string {
	if share < 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*share)
}

// Build is the supplementary experiment behind the parallel spectrum
// construction: an engine sweep over the extraction-worker count (the same
// Workers knob that sizes the correction pool) with the pipelined
// batch-reads exchange, plus a layout comparison of the frozen owned
// spectra — the mutable hash tables the build uses against the packed
// slabs it freezes into and the prior art's replicated layouts — at equal
// entry counts.
func Build(sc Scale) (*Table, error) {
	ds := buildDataset(genome.EColiSim, sc, false)
	np := sc.Ranks(128)
	par := runtime.GOMAXPROCS(0)
	cpuBar := fmt.Sprintf("informational only (GOMAXPROCS=%d, <4 CPUs: each rank's builder clamps its workers to "+
		"its share of the process's parallelism, so extra workers route through the serial path)", par)
	if par >= 4 {
		cpuBar = fmt.Sprintf("enforced (GOMAXPROCS=%d)", par)
	}
	t := &Table{
		ID:    "build",
		Title: fmt.Sprintf("Spectrum build: workers and store layouts, %d ranks (E.Coli)", np),
		Note: "new to this implementation; enforced bars: byte-identical output for every worker count, " +
			fmt.Sprintf("workers>1 spectrum wall no worse than 0.8x of serial (each row the median of %d samples interleaved ", buildReps) +
			"across the rows; a sample whose process cpu share over the spectrum phase shows another process starved it " +
			"is retaken), >=1.5x lower MemBytes for the packed layout vs the mutable hash tables at equal entries, and the delta-varint exchange codec under 8 wire bytes " +
			"per spectrum entry (the fixed encoding it replaced shipped 12); the cpu-bound large-genome rows carry " +
			"a >=1.3x workers=4 speedup bar, " + cpuBar,
		Header: []string{"mode", "spectrum wall", "speedup", "cpu share", "mem at freeze", "owned bytes", "bytes/entry", "wire B/entry", "vs hash", "lookup", "bases corrected"},
	}

	// Engine sweep: the worker count shards extraction and folding; the
	// batch-reads chunks drive the multi-round pipelined exchange. Run once
	// at the harness's communication-heavy rank count, then again on a 4x
	// dataset at 2 ranks — there extraction dominates the spectrum phase, so
	// the sweep is CPU-bound and the workers=4 row measures real parallel
	// speedup instead of exchange overlap.
	sweep := func(label string, ds *genome.Dataset, np int, cpuBound bool) error {
		workerCounts := []int{1, 2, 4}
		opts := make([]core.Options, len(workerCounts))
		for i, workers := range workerCounts {
			h := core.Heuristics{BatchReads: true}
			if workers > 1 {
				h.Workers = workers
				h.LookupBatch = 32
			}
			opts[i] = optionsFor(sc, ds, h, true)
		}
		// Each row reports the median of buildReps samples, taken
		// interleaved across the rows: the walls under comparison are
		// fractions of a second at bench scale and drift by a third
		// between identical uncontended runs on a small shared host, and
		// the 0.8x no-regression bar is enforced, so neither a single
		// sample nor a slow stretch of the host may decide a row.
		type sample struct {
			out         *core.Output
			wall, share float64
		}
		samples := make([][]sample, len(workerCounts))
		for rep := 0; rep < buildReps; rep++ {
			for i, workers := range workerCounts {
				o, s, err := buildSample(ds, np, opts[i], min(par, np*workers))
				if err != nil {
					return fmt.Errorf("%s workers=%d: %w", label, workers, err)
				}
				o.ByRank = nil // the row keeps counters, not corrected reads
				samples[i] = append(samples[i], sample{o, o.Run.Wall[stats.PhaseSpectrum].Seconds(), s})
			}
		}
		var baseWall, baseShare float64
		var baseCorrected, baseChanged int64
		for i, workers := range workerCounts {
			row := samples[i]
			sort.Slice(row, func(a, b int) bool { return row[a].wall < row[b].wall })
			med := row[len(row)/2]
			out, wall, share := med.out, med.wall, med.share
			if i == 0 {
				baseWall, baseShare = wall, share
				baseCorrected, baseChanged = out.Result.BasesCorrected, out.Result.ReadsChanged
			} else if out.Result.BasesCorrected != baseCorrected || out.Result.ReadsChanged != baseChanged {
				return fmt.Errorf("%s workers=%d: corrected %d bases (%d reads), workers=1 corrected %d (%d) — sharding changed the output",
					label, workers, out.Result.BasesCorrected, out.Result.ReadsChanged, baseCorrected, baseChanged)
			}
			speedup := 1.0
			if wall > 0 {
				speedup = baseWall / wall
			}
			if workers > 1 && speedup < 0.8 {
				return fmt.Errorf("%s workers=%d: spectrum wall %.3fs (cpu share %s) is %.2fx of serial's %.3fs (cpu share %s) — parallel build regression (bar: >=0.8x)",
					label, workers, wall, cpuShare(share), speedup, baseWall, cpuShare(baseShare))
			}
			if cpuBound && workers == 4 && par >= 4 && speedup < 1.3 {
				return fmt.Errorf("%s workers=4: cpu-bound speedup %.2fx on a %d-CPU host, bar is >=1.3x", label, speedup, par)
			}
			owned := out.Run.Sum(func(r *stats.Rank) int64 { return r.OwnedMemBytes })
			entries := out.Run.Sum(func(r *stats.Rank) int64 { return r.OwnedKmers + r.OwnedTiles })
			perEntry := 0.0
			if entries > 0 {
				perEntry = float64(owned) / float64(entries)
			}
			// The exchange-codec bar: round slabs ship zigzag-varint id
			// deltas + varint counts, which must beat the fixed 12-byte
			// entry they replaced with real margin.
			wireBytes := out.Run.Sum(func(r *stats.Rank) int64 { return r.SpecBytesSent })
			wireEntries := out.Run.Sum(func(r *stats.Rank) int64 { return r.SpecEntriesSent })
			wirePer := 0.0
			if wireEntries > 0 {
				wirePer = float64(wireBytes) / float64(wireEntries)
				if wirePer >= 8 {
					return fmt.Errorf("%s workers=%d: spectrum exchange shipped %.1f wire bytes/entry, bar is <8 (fixed encoding was 12)",
						label, workers, wirePer)
				}
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%s workers=%d", label, workers),
				secs(wall),
				fmt.Sprintf("%.2fx", speedup),
				cpuShare(share),
				mib(out.Run.Max(func(r *stats.Rank) int64 { return r.MemAtFreeze })),
				mib(owned),
				fmt.Sprintf("%.1f", perEntry),
				fmt.Sprintf("%.1f", wirePer),
				"-",
				"-",
				count(out.Result.BasesCorrected),
			})
		}
		return nil
	}
	if err := sweep("engine", ds, np, false); err != nil {
		return t, err
	}
	scLarge := sc
	scLarge.Dataset = sc.Dataset * 4
	if err := sweep("large np=2", buildDataset(genome.EColiSim, scLarge, false), 2, true); err != nil {
		return t, err
	}

	// Layout comparison at equal entry counts. 100000 entries land the
	// packed table at load 100000/131072 = 0.763, i.e. 15.7 bytes/entry
	// against the hash estimate's 24 — the >=1.5x acceptance bar.
	const storeEntries = 100000
	entries, probes := storeData(storeEntries)
	hash := spectrum.NewHash(len(entries))
	for _, e := range entries {
		hash.Set(e.ID, e.Count)
	}
	stores := []struct {
		name string
		s    spectrum.Lookuper
	}{
		{"store hash (mutable)", hash},
		{"store packed (frozen)", spectrum.NewPacked(entries)},
		{"store sorted (Shah)", spectrum.NewSorted(entries)},
		{"store cacheaware (Jammula)", spectrum.NewCacheAware(entries)},
	}
	hashBytes := hash.MemBytes()
	for _, st := range stores {
		if st.s.Len() != len(entries) {
			return nil, fmt.Errorf("%s: %d entries, want %d", st.name, st.s.Len(), len(entries))
		}
		if ratio := float64(hashBytes) / float64(st.s.MemBytes()); st.name == "store packed (frozen)" && ratio < 1.5 {
			return t, fmt.Errorf("build: packed layout is %.2fx smaller than the hash tables, bar is >=1.5x", ratio)
		}
		start := time.Now()
		hits := 0
		for _, id := range probes {
			if _, ok := st.s.Count(id); ok {
				hits++
			}
		}
		perLookup := time.Since(start) / time.Duration(len(probes))
		if hits == 0 {
			return nil, fmt.Errorf("%s: no probe hit", st.name)
		}
		t.Rows = append(t.Rows, []string{
			st.name,
			"-",
			"-",
			"-",
			"-",
			mib(st.s.MemBytes()),
			fmt.Sprintf("%.1f", float64(st.s.MemBytes())/float64(len(entries))),
			"-",
			fmt.Sprintf("%.2fx", float64(hashBytes)/float64(st.s.MemBytes())),
			perLookup.String(),
			"-",
		})
	}
	return t, nil
}

// storeData builds a deterministic random spectrum and a probe schedule
// mixing present and absent ids, shared by the Build experiment and the
// store ablation bench.
func storeData(n int) (entries []spectrum.Entry, probes []kmer.ID) {
	rng := rand.New(rand.NewSource(42))
	seen := make(map[kmer.ID]bool, n)
	entries = make([]spectrum.Entry, 0, n)
	for len(entries) < n {
		id := kmer.ID(rng.Uint64())
		if seen[id] {
			continue
		}
		seen[id] = true
		entries = append(entries, spectrum.Entry{ID: id, Count: uint32(rng.Intn(200) + 1)})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	probes = make([]kmer.ID, 4*n)
	for i := range probes {
		if i%2 == 0 {
			probes[i] = entries[rng.Intn(len(entries))].ID
		} else {
			probes[i] = kmer.ID(rng.Uint64())
		}
	}
	return entries, probes
}

// Recover measures the rank-failure recovery layer: what R=2 replica
// placement costs a fault-free run (peak memory and exchange volume carry
// the duplicated frozen shards), and that a seeded single-rank crash
// mid-correction completes with byte-identical output — the survivors fail
// lookups over to the replica holder, re-replicate the lost shard, and
// correct the dead rank's reads by proxy. The no-replica baseline under the
// same crash aborts; that contract is exercised by the chaos suite, not
// timed here.
func Recover(sc Scale) (*Table, error) {
	ds := buildDataset(genome.EColiSim, sc, false)
	np := sc.Ranks(128)
	if np < 4 {
		np = 4 // a crash needs a coordinator, a victim, and >=2 survivors to shuffle shards between
	}
	h := core.Heuristics{LookupBatch: 32}
	t := &Table{
		ID:     "recover",
		Title:  fmt.Sprintf("Rank-failure recovery, %d ranks (E.Coli, crash rank 1 mid-correction)", np),
		Note:   "new to this implementation; acceptance bar is a completed, byte-identical run under a single correct-phase crash, with fault-free R=2 overhead reported",
		Header: []string{"mode", "wall", "peak mem", "exchange", "failovers", "reshards", "reads recovered", "output"},
	}
	sameBases := func(a, b []dna.Base) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	identical := func(a, b *core.Output) bool {
		ac, bc := a.Corrected(), b.Corrected()
		if len(ac) != len(bc) {
			return false
		}
		for i := range ac {
			if ac[i].Seq != bc[i].Seq || !sameBases(ac[i].Base, bc[i].Base) {
				return false
			}
		}
		return a.Result == b.Result
	}
	crashPlan := transport.NewPlan(17)
	crashPlan.CrashRank = 1
	crashPlan.CrashPhase = "correct"
	crashPlan.CrashAfter = 3
	modes := []struct {
		name     string
		replicas int
		plan     *transport.Plan
	}{
		{"baseline R=1", 0, nil},
		{"replicas R=2", 2, nil},
		{"R=2 + crash", 2, &crashPlan},
	}
	var ref *core.Output
	var refMem, refExch int64
	for i, m := range modes {
		opts := optionsFor(sc, ds, h, true)
		opts.Replicas = m.replicas
		if m.plan != nil {
			opts.Chaos = m.plan
		}
		out, err := engineRun(ds, np, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		peak := out.Run.Max(func(r *stats.Rank) int64 { return r.PeakMemBytes })
		exch := out.Run.Sum(func(r *stats.Rank) int64 { return r.ExchangeBytes })
		outcome := "identical"
		if i == 0 {
			ref, refMem, refExch = out, peak, exch
			outcome = "reference"
		} else if !identical(ref, out) {
			return nil, fmt.Errorf("%s: output differs from the R=1 reference", m.name)
		}
		memCol, exchCol := mib(peak), mib(exch)
		if i > 0 && refMem > 0 {
			memCol = fmt.Sprintf("%s (%+.1f%%)", mib(peak), 100*float64(peak-refMem)/float64(refMem))
			exchCol = fmt.Sprintf("%s (%+.1f%%)", mib(exch), 100*float64(exch-refExch)/float64(refExch))
		}
		t.Rows = append(t.Rows, []string{
			m.name,
			out.Run.Elapsed.Round(time.Millisecond).String(),
			memCol,
			exchCol,
			count(out.Run.Sum(func(r *stats.Rank) int64 { return r.FailoversTaken })),
			count(out.Run.Sum(func(r *stats.Rank) int64 { return r.ShardsRereplicated })),
			count(out.Run.Sum(func(r *stats.Rank) int64 { return r.ReadsRecovered })),
			outcome,
		})
	}
	return t, nil
}
