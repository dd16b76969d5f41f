package core

import (
	"time"

	"reptile/internal/collective"
	"reptile/internal/reptile"
	"reptile/internal/stats"
	"reptile/internal/transport"
)

// phaseStep is one declarative stage of the rank pipeline. run does the
// phase's work; after, when set, is an observation hook that fires only on
// success, inside the phase's wall-time window (freeze-point snapshots
// belong to the phase that produced them).
type phaseStep struct {
	phase stats.Phase
	run   func(ctx *rankCtx) error
	after func(ctx *rankCtx)
}

// newRankCtx validates the options and builds one rank's pipeline context.
func newRankCtx(e transport.Conn, opts Options) (*rankCtx, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ctx := &rankCtx{
		e:    e,
		comm: collective.New(e),
		opts: opts,
		rank: e.Rank(),
		np:   e.Size(),
	}
	ctx.st.Rank = ctx.rank
	return ctx, nil
}

// enterPhase tells phase-aware endpoint wrappers (the chaos layer's
// crash-at-phase trigger) which phase is entering; plain endpoints don't
// care.
func (ctx *rankCtx) enterPhase(p stats.Phase) {
	if ep, ok := ctx.e.(interface{ EnterPhase(string) }); ok {
		ep.EnterPhase(p.String())
	}
}

// runSteps executes a declarative step list with per-phase wall timing,
// the abort-on-failure edge (ctx.fail with the phase's canonical name),
// and per-phase memory observation.
func (ctx *rankCtx) runSteps(steps []phaseStep) error {
	for _, s := range steps {
		ctx.enterPhase(s.phase)
		start := time.Now()
		err := s.run(ctx)
		if err == nil && s.after != nil {
			s.after(ctx)
		}
		ctx.st.Wall[s.phase] += time.Since(start)
		if err != nil {
			return ctx.fail(s.phase.String(), err)
		}
		ctx.st.PhaseMem[s.phase] = ctx.currentMem()
		ctx.observeMem()
	}
	return nil
}

// rankOutput is the closing stats epilogue: transport totals and the
// correction summary, folded into this rank's output.
func (ctx *rankCtx) rankOutput() *RankOutput {
	ctx.st.BasesCorrected = ctx.res.BasesCorrected
	ctx.st.ReadsChanged = ctx.res.ReadsChanged
	ctx.st.MsgsSent = ctx.e.Counters().MsgsSent()
	ctx.st.BytesSent = ctx.e.Counters().BytesSent()
	ctx.st.MaxInboxDepth = int64(ctx.e.MaxQueueDepth())
	ctx.observeFaults()
	return &RankOutput{Corrected: ctx.myReads, Stats: ctx.st, Result: ctx.res}
}

// runRankPipeline executes one rank's pipeline over a declarative step
// list — the single driver behind both RunRank and RunRankStreaming,
// assembled from the same context/steps/epilogue parts StartService uses
// to split the lifecycle. The engines differ only in which steps they
// pass.
func runRankPipeline(e transport.Conn, opts Options, steps []phaseStep) (*RankOutput, error) {
	ctx, err := newRankCtx(e, opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.runSteps(steps); err != nil {
		return nil, err
	}
	ctx.depart()
	return ctx.rankOutput(), nil
}

// depart tells the peers this rank finished cleanly, on transports that
// can say so: once the correct phase's stop has arrived no peer expects
// another frame from this rank, so its endpoint closing afterwards must
// not read as a rank failure at a peer whose own stop is still in flight.
func (ctx *rankCtx) depart() {
	if d, ok := ctx.e.(interface{ Depart() }); ok {
		d.Depart()
	}
}

// afterConstruct snapshots the table footprint at the second freeze point —
// the end of the post-construction exchanges — for the paper's
// memory-scaling comparison.
func afterConstruct(ctx *rankCtx) {
	ctx.st.MemAfterConstruct = ctx.currentMem()
}

// snapshotStep inserts the snapshot-cache probe ahead of the build steps
// when the run is configured for it. The step exists only then: a run
// without Options.Snapshot has no snapshot phase at all (its wall time and
// footprint stay zero), so the phase list is still declarative evidence of
// what the rank actually did.
func snapshotStep(opts Options, steps []phaseStep) []phaseStep {
	if opts.Snapshot == nil {
		return steps
	}
	return append([]phaseStep{{phase: stats.PhaseSnapshot, run: (*rankCtx).snapshotPhase}}, steps...)
}

// buildSteps is the resident half of the in-memory engine's lifecycle: the
// paper's Steps I-III (read, balance, spectrum build, post-construction
// exchanges), ending at the freeze point with the spectra packed and
// immutable — everything a resident SpectrumService runs exactly once,
// with the snapshot probe spliced ahead of the build when the run is
// configured for it.
func buildSteps(src Source, opts Options) []phaseStep {
	return append([]phaseStep{
		{phase: stats.PhaseRead, run: func(ctx *rankCtx) error { return ctx.readPhase(src) }},
		{phase: stats.PhaseBalance, run: (*rankCtx).balancePhase},
	}, snapshotStep(opts, []phaseStep{
		{phase: stats.PhaseSpectrum, run: (*rankCtx).spectrumPhase},
		{phase: stats.PhaseExchange, run: (*rankCtx).postExchangePhase, after: afterConstruct},
	})...)
}

// batchSteps is the in-memory engine: the build steps plus Step IV, where
// the rank's whole resident read set runs through the session layer as a
// single one-shot session — the same correction code path a served client
// job takes.
func batchSteps(src Source, opts Options) []phaseStep {
	return append(buildSteps(src, opts), phaseStep{
		phase: stats.PhaseCorrect, run: func(ctx *rankCtx) error {
			res, err := ctx.correctDriver(func(disp *lookupDispatcher) (reptile.Result, error) {
				return ctx.correctOneShot()
			})
			ctx.res = res
			return err
		}})
}

// streamingSteps is the low-memory engine: no read or balance phase up
// front (the source is traversed inside the spectrum and correct steps,
// one chunk at a time), and the correct step loops balanced chunks through
// the same worker pool, writing each to the sink. A snapshot hit skips the
// build's whole first source traversal.
func streamingSteps(src Source, sink Sink, opts Options) []phaseStep {
	return snapshotStep(opts, []phaseStep{
		{phase: stats.PhaseSpectrum, run: func(ctx *rankCtx) error { return ctx.streamSpectrumPhase(src) }},
		{phase: stats.PhaseExchange, run: (*rankCtx).postExchangePhase, after: afterConstruct},
		{phase: stats.PhaseCorrect, run: func(ctx *rankCtx) error {
			res, err := ctx.correctDriver(func(disp *lookupDispatcher) (reptile.Result, error) {
				return ctx.correctStreamLoop(src, sink, disp)
			})
			ctx.res = res
			return err
		}},
	})
}
