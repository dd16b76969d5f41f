package core

import (
	"fmt"
	"sync"
	"time"

	"reptile/internal/stats"
	"reptile/internal/transport"
)

// SpectrumService is the resident half of the split lifecycle (DESIGN.md
// §17): StartService runs the build phases once — read, balance, snapshot
// probe, spectrum construction, post-construction exchanges — freezes the
// spectra, and arms the correct-phase machinery (router, dispatcher,
// prefetch plane, session executor), then keeps it all alive so any number
// of correction sessions can multiplex onto the rank group. Drain is the
// graceful end: new opens are rejected with the typed draining error,
// admitted sessions complete, and the done/stop protocol tears the group
// down together.
//
// Like RunRank, every rank of the group runs its own StartService
// concurrently; sessions may be opened from any rank's handle and execute
// at any rank. Drain blocks until the whole group quiesces, so a pure
// executor rank (one that never opens sessions of its own, like
// reptile-serve's non-front-door ranks) simply calls ServeExecutor right
// away and serves until the coordinator's stop.
type SpectrumService struct {
	ctx   *rankCtx
	plane *residentPlane
	armed time.Time

	mu       sync.Mutex
	cond     *sync.Cond      // guarded by mu; signaled when an open session closes
	draining bool            // guarded by mu
	open     int             // guarded by mu; live sessions opened via this handle
	next     int             // guarded by mu; round-robin executor cursor
	lats     []time.Duration // guarded by mu; latencies of cleanly closed sessions
	closed   int64           // guarded by mu; sessions closed cleanly via this handle
	drained  bool            // guarded by mu
	out      *RankOutput     // guarded by mu; Drain's memoized result
	err      error           // guarded by mu
}

// StartService builds one rank's resident spectrum service: the build
// phases run to the freeze point (a snapshot-cache hit skips the build
// entirely), then the correct-phase plane is armed and stays armed until
// Drain. The correction modes that assume a single one-shot job — work
// stealing (its chunk queue is cut once from resident reads) and R=2
// recovery (its executor re-derives a dead rank's one-shot estate) — are
// rejected here.
func StartService(e transport.Conn, src Source, opts Options) (*SpectrumService, error) {
	if opts.WorkSteal {
		return nil, fmt.Errorf("core: a resident service cannot run WorkSteal: the steal queue is cut once from a one-shot job's resident reads")
	}
	if opts.Replicas >= 2 {
		return nil, fmt.Errorf("core: a resident service cannot run Replicas=2: the recovery executor re-derives a dead rank's one-shot estate")
	}
	ctx, err := newRankCtx(e, opts)
	if err != nil {
		return nil, err
	}
	// The rank draws on the process's build budget only while it builds.
	leave := joinProcess(1)
	err = ctx.runSteps(buildSteps(src, opts))
	leave()
	if err != nil {
		return nil, err
	}
	ctx.enterPhase(stats.PhaseCorrect)
	s := &SpectrumService{ctx: ctx, armed: time.Now(), plane: ctx.armCorrect()}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Rank returns this service node's rank.
func (s *SpectrumService) Rank() int { return s.ctx.rank }

// Size returns the rank-group size.
func (s *SpectrumService) Size() int { return s.ctx.np }

// Open starts a correction session for tenant at the next executor rank in
// round-robin order, spreading concurrent clients across the group.
func (s *SpectrumService) Open(tenant string) (*Session, error) {
	s.mu.Lock()
	target := s.next % s.ctx.np
	s.next++
	s.mu.Unlock()
	return s.OpenAt(target, tenant)
}

// OpenAt starts a correction session for tenant at a specific executor
// rank. During drain it fails immediately with the typed draining
// rejection; past the executor's per-tenant cap it fails with the typed
// capacity rejection.
func (s *SpectrumService) OpenAt(target int, tenant string) (*Session, error) {
	if target < 0 || target >= s.ctx.np {
		return nil, fmt.Errorf("core: session target rank %d of %d", target, s.ctx.np)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, &SessionError{Kind: SessionRejectDraining, Rank: s.ctx.rank,
			Tenant: tenant, Msg: "service draining"}
	}
	// Reserve before the wire open so a concurrent Drain cannot observe
	// zero open sessions while this one is mid-handshake.
	s.open++
	s.mu.Unlock()
	sess, err := s.ctx.openSession(target, tenant)
	if err != nil {
		s.mu.Lock()
		s.open--
		s.cond.Broadcast()
		s.mu.Unlock()
		return nil, err
	}
	sess.svc = s
	return sess, nil
}

// sessionClosed is Session.Close's notification back to the opening
// service handle.
func (s *SpectrumService) sessionClosed(sess *Session, err error) {
	s.mu.Lock()
	s.open--
	if err == nil {
		s.closed++
		s.lats = append(s.lats, time.Since(sess.opened))
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Stats summarizes the sessions opened and completed through this handle
// so far (executor-side counters live in the drained RankOutput's stats).
func (s *SpectrumService) Stats() stats.Serve {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _, rejected, served := s.ctx.sessions.counters()
	return stats.NewServe(s.closed, rejected, served, time.Since(s.armed), s.lats)
}

// Drain gracefully ends this service node: new opens are rejected with
// the typed draining error (locally and at this rank's executor), sessions
// opened through this handle run to completion, and then the rank
// announces done and serves peers until the coordinator's group-wide stop
// — so Drain returns only when every rank has drained. The rank's output
// (correction totals of everything its executor corrected, full stats) is
// memoized; calling Drain again returns the same result.
func (s *SpectrumService) Drain() (*RankOutput, error) { return s.drain(true) }

// ServeExecutor runs this rank as a pure executor: it announces done right
// away (it will open no sessions of its own) and keeps answering peers'
// session opens and chunks until the coordinator rank's Drain stops the
// group. Unlike Drain it leaves this rank's executor admitting — the whole
// point of a pure executor is to accept the front door's round-robin opens
// — so group-wide drain rejection stays the coordinator handle's job.
func (s *SpectrumService) ServeExecutor() (*RankOutput, error) { return s.drain(false) }

func (s *SpectrumService) drain(rejectOpens bool) (*RankOutput, error) {
	s.mu.Lock()
	if s.drained {
		out, err := s.out, s.err
		s.mu.Unlock()
		return out, err
	}
	s.draining = true
	if rejectOpens {
		s.ctx.sessions.setDraining()
	}
	for s.open > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()

	ctx := s.ctx
	err := ctx.quiesceCorrect(s.plane, &ctx.res)
	ctx.st.Wall[stats.PhaseCorrect] += time.Since(s.armed)
	var out *RankOutput
	if err == nil {
		ctx.res = ctx.sessions.totalResult()
		ctx.st.PhaseMem[stats.PhaseCorrect] = ctx.currentMem()
		ctx.observeMem()
		ctx.depart()
		out = ctx.rankOutput()
	}
	s.mu.Lock()
	s.drained, s.out, s.err = true, out, err
	s.mu.Unlock()
	return out, err
}
