package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"reptile/internal/reads"
	"reptile/internal/reptile"
	"reptile/internal/stats"
	"reptile/internal/transport"
)

// Output aggregates a whole run.
type Output struct {
	// ByRank holds each rank's corrected reads in rank order.
	ByRank [][]reads.Read
	// Run carries every rank's counters and the per-phase wall times.
	Run stats.Run
	// Result is the correction totals across ranks.
	Result reptile.Result
}

// Corrected returns all corrected reads sorted by sequence number, the
// order of the input file.
func (o *Output) Corrected() []reads.Read {
	var all []reads.Read
	for _, b := range o.ByRank {
		all = append(all, b...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	return all
}

// rankConn wraps one proc-group endpoint per the run options: the plain
// endpoint normally, the chaos layer when a fault schedule is configured.
func rankConn(eps []*transport.Endpoint, r int, opts Options) transport.Conn {
	if opts.Chaos == nil {
		return eps[r]
	}
	return transport.NewChaos(eps[r], *opts.Chaos)
}

// pickRunError selects which rank's error to surface for a whole run. The
// abort protocol makes every rank fail, so the interesting error is the
// origin's: its own AbortError (the Rank field names itself), or a raw
// error that never entered the abort protocol at all (a sink factory
// failing before the rank started). Errors derived from teardown
// (ErrClosed) rank last.
func pickRunError(errs []error) error {
	origin := func(r int, err error) bool {
		var ab *AbortError
		if errors.As(err, &ab) {
			return ab.Rank == r
		}
		return !errors.Is(err, transport.ErrClosed)
	}
	betterThan := func(r int, err error, curRank int, cur error) bool {
		if cur == nil {
			return true
		}
		if newOrigin, curOrigin := origin(r, err), origin(curRank, cur); newOrigin != curOrigin {
			return newOrigin
		}
		return errors.Is(cur, transport.ErrClosed) && !errors.Is(err, transport.ErrClosed)
	}
	var firstErr error
	firstRank := -1
	for r, err := range errs {
		if err == nil {
			continue
		}
		if betterThan(r, err, firstRank, firstErr) {
			firstErr, firstRank = err, r
		}
	}
	if firstErr == nil {
		return nil
	}
	return fmt.Errorf("core: rank %d failed: %w", firstRank, firstErr)
}

// runGroup is the shared launcher behind Run and RunStreaming: build the
// in-process group, wrap each endpoint per the run options, run one rank
// per goroutine, pick the run's representative error, and aggregate the
// per-rank outputs (corrected reads in rank order, every rank's counters,
// per-phase wall maxima).
func runGroup(np int, opts Options, runOne func(conn transport.Conn, r int) (*RankOutput, error)) (*Output, error) {
	if np < 1 {
		return nil, fmt.Errorf("core: np=%d", np)
	}
	if opts.Chaos != nil {
		if err := opts.Chaos.Validate(np); err != nil {
			return nil, err
		}
	}
	eps, err := transport.NewProcGroup(np)
	if err != nil {
		return nil, err
	}
	defer transport.CloseGroup(eps)
	// Every rank counts against the process's build budget before any of
	// them starts, so no early rank sizes its workers for an emptier host.
	defer joinProcess(np)()

	outs := make([]*RankOutput, np)
	errs := make([]error, np)
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			outs[r], errs[r] = runOne(rankConn(eps, r, opts), r)
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if err := pickRunError(errs); err != nil {
		// A failed rank does not fail the run when the survivors' recovery
		// layer absorbed exactly that loss: the dead rank's shard and reads
		// were re-covered, so the aggregated output is complete.
		if !recoveredGroup(outs, errs) {
			return nil, err
		}
	}

	out := &Output{
		ByRank: make([][]reads.Read, np),
		Run:    stats.Run{Ranks: make([]stats.Rank, np)},
	}
	for r, ro := range outs {
		if ro == nil {
			continue // a recovered rank produced no output of its own
		}
		out.ByRank[r] = ro.Corrected
		out.Run.Ranks[r] = ro.Stats
		out.Result.Add(ro.Result)
		for p := stats.Phase(0); p < stats.NumPhases; p++ {
			if ro.Stats.Wall[p] > out.Run.Wall[p] {
				out.Run.Wall[p] = ro.Stats.Wall[p]
			}
		}
	}
	out.Run.Elapsed = elapsed
	return out, nil
}

// recoveredGroup reports whether every failed rank's loss was absorbed by
// the survivors' recovery layer: at least one rank finished cleanly, and the
// union of the survivors' RecoveredRanks covers every rank that failed.
func recoveredGroup(outs []*RankOutput, errs []error) bool {
	recovered := make(map[int]bool)
	survivors := 0
	for r, err := range errs {
		if err != nil || outs[r] == nil {
			continue
		}
		survivors++
		for _, d := range outs[r].Stats.RecoveredRanks {
			recovered[d] = true
		}
	}
	if survivors == 0 {
		return false
	}
	for r, err := range errs {
		if err != nil && !recovered[r] {
			return false
		}
	}
	return true
}

// Run executes the distributed pipeline with np goroutine ranks over the
// in-process transport — the standard way to run the engine inside one
// process. For one-process-per-rank deployments, call RunRank directly
// with TCP endpoints (see cmd/reptile-correct).
func Run(src Source, np int, opts Options) (*Output, error) {
	return runGroup(np, opts, func(conn transport.Conn, r int) (*RankOutput, error) {
		return runRankPipeline(conn, opts, batchSteps(src, opts))
	})
}
