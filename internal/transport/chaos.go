// Chaos is the fault-injection layer: a wrapper implementing the full Conn
// surface over a concrete Endpoint, driving a deterministic, seeded fault
// schedule through it. Benign faults (latency, jitter, a throttled rank)
// only stretch time — delays run in the sending goroutine before the real
// send, so per-(sender,tag) FIFO order and therefore the corrected output
// are unchanged. Fatal faults (crash, frame corruption, link drop) are
// positional — they fire on the Nth send of the afflicted rank — so a
// scenario is reproducible from its Plan alone.
package transport

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Plan is one deterministic fault schedule. The zero value of each field
// disables that fault; rank fields use -1 as "no rank" (NewPlan and
// normalize take care of the distinction, since rank 0 is a valid target).
type Plan struct {
	// Seed drives the jitter stream. Each rank derives its own generator
	// from Seed and its rank, so a multi-rank scenario replays identically.
	Seed int64

	// Delay is a fixed latency added to every send.
	Delay time.Duration
	// Jitter adds a uniform random latency in [0, Jitter) per send.
	Jitter time.Duration
	// SlowRank's sends are throttled by SlowFactor× the delay+jitter.
	SlowRank   int
	SlowFactor int

	// CrashRank stops dead at its CrashAfter-th send (1-based): the
	// endpoint closes as if the process were killed, and the send returns
	// an ErrInjected-wrapped error. The rank does not get to say goodbye —
	// peers must detect the loss themselves.
	CrashRank  int
	CrashAfter int64
	// CrashPhase, when non-empty, scopes the crash trigger to a pipeline
	// phase: the send counter restarts at every EnterPhase call and the
	// crash fires at the CrashAfter-th send *inside* the named phase. This
	// is how recovery tests kill a rank deterministically mid-correction
	// instead of guessing a positional send ordinal that drifts with every
	// protocol change. Valid names are the pipeline's phase strings (read,
	// balance, spectrum, exchange, correct).
	CrashPhase string

	// CorruptRank's CorruptAfter-th send (1-based) has one frame byte
	// flipped after its CRC is computed, so the receiver sees a checksum
	// mismatch (ErrCorruptFrame), never a silently wrong decode.
	CorruptRank  int
	CorruptAfter int64

	// DropRank severs its link to DropPeer at its DropAfter-th send
	// (1-based), as if the cable were pulled mid-run.
	DropRank  int
	DropPeer  int
	DropAfter int64
}

// NewPlan returns an empty (fault-free) plan with the given seed.
func NewPlan(seed int64) Plan {
	return Plan{Seed: seed, SlowRank: -1, CrashRank: -1, CorruptRank: -1, DropRank: -1, DropPeer: -1}
}

// normalize maps zero values onto their documented defaults so a Plan
// built by struct literal behaves like one built by NewPlan/ParsePlan.
func (p *Plan) normalize() {
	if p.SlowFactor <= 0 {
		p.SlowFactor = 4
	}
	if p.CrashRank >= 0 && p.CrashAfter <= 0 {
		p.CrashAfter = 1
	}
	if p.CorruptRank >= 0 && p.CorruptAfter <= 0 {
		p.CorruptAfter = 1
	}
	if p.DropRank >= 0 && p.DropAfter <= 0 {
		p.DropAfter = 1
	}
}

// Benign reports whether the plan contains only timing faults, under which
// a run must produce byte-identical output to a fault-free run.
func (p Plan) Benign() bool {
	return p.CrashRank < 0 && p.CorruptRank < 0 && p.DropRank < 0
}

// Validate checks the plan against a group size.
func (p Plan) Validate(np int) error {
	check := func(name string, r int) error {
		if r >= np {
			return fmt.Errorf("chaos: %s rank %d out of range [0,%d)", name, r, np)
		}
		return nil
	}
	if err := check("slow", p.SlowRank); err != nil {
		return err
	}
	if err := check("crash", p.CrashRank); err != nil {
		return err
	}
	if p.CrashPhase != "" {
		if p.CrashRank < 0 {
			return fmt.Errorf("chaos: crash phase %q without a crash rank", p.CrashPhase)
		}
		switch p.CrashPhase {
		case "read", "balance", "spectrum", "exchange", "correct":
		default:
			return fmt.Errorf("chaos: unknown crash phase %q", p.CrashPhase)
		}
	}
	if err := check("corrupt", p.CorruptRank); err != nil {
		return err
	}
	if err := check("drop", p.DropRank); err != nil {
		return err
	}
	if p.DropRank >= 0 {
		if err := check("drop peer", p.DropPeer); err != nil {
			return err
		}
		if p.DropPeer < 0 {
			return fmt.Errorf("chaos: drop rank %d has no peer", p.DropRank)
		}
	}
	if p.Delay < 0 || p.Jitter < 0 {
		return fmt.Errorf("chaos: negative delay or jitter")
	}
	return nil
}

// ParsePlan parses the CLI fault-schedule syntax: comma-separated clauses
//
//	delay=2ms          fixed per-send latency
//	jitter=1ms         uniform random extra latency in [0, 1ms)
//	slow=1 | slow=1x8  throttle rank 1 (optionally by factor 8, default 4)
//	crash=2@100        rank 2 crashes at its 100th send
//	crash=2@correct    rank 2 crashes at its 1st send of the correct phase
//	crash=2@correct:5  ... at its 5th send of the correct phase
//	corrupt=1@50       rank 1's 50th frame is corrupted on the wire
//	drop=0-1@30        rank 0 severs its link to rank 1 at its 30th send
//
// An empty spec yields the fault-free plan.
func ParsePlan(spec string, seed int64) (Plan, error) {
	p := NewPlan(seed)
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, clause := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok {
			return p, fmt.Errorf("chaos: clause %q is not key=value", clause)
		}
		var err error
		switch key {
		case "delay":
			p.Delay, err = time.ParseDuration(val)
		case "jitter":
			p.Jitter, err = time.ParseDuration(val)
		case "slow":
			rank, factor, hasFactor := strings.Cut(val, "x")
			p.SlowRank, err = strconv.Atoi(rank)
			if err == nil && hasFactor {
				p.SlowFactor, err = strconv.Atoi(factor)
			}
		case "crash":
			p.CrashRank, p.CrashAfter, p.CrashPhase, err = parseCrash(val)
		case "corrupt":
			p.CorruptRank, p.CorruptAfter, err = parseRankAt(val)
		case "drop":
			link, at, hasAt := strings.Cut(val, "@")
			if !hasAt {
				return p, fmt.Errorf("chaos: drop clause %q needs @N", val)
			}
			from, to, hasTo := strings.Cut(link, "-")
			if !hasTo {
				return p, fmt.Errorf("chaos: drop clause %q needs rank-peer", val)
			}
			p.DropRank, err = strconv.Atoi(from)
			if err == nil {
				p.DropPeer, err = strconv.Atoi(to)
			}
			if err == nil {
				p.DropAfter, err = strconv.ParseInt(at, 10, 64)
			}
		default:
			return p, fmt.Errorf("chaos: unknown fault %q", key)
		}
		if err != nil {
			return p, fmt.Errorf("chaos: clause %q: %v", clause, err)
		}
	}
	p.normalize()
	return p, nil
}

func parseRankAt(val string) (rank int, at int64, err error) {
	r, n, ok := strings.Cut(val, "@")
	if !ok {
		return 0, 0, fmt.Errorf("%q needs rank@N", val)
	}
	rank, err = strconv.Atoi(r)
	if err != nil {
		return 0, 0, err
	}
	at, err = strconv.ParseInt(n, 10, 64)
	return rank, at, err
}

// parseCrash parses a crash trigger: rank@N (positional, the original
// syntax) or rank@phase[:N] (the N-th send inside a named phase, default
// the first). Phase names are validated by Plan.Validate, not here, so an
// out-of-range rank and an unknown phase report through the same path.
func parseCrash(val string) (rank int, at int64, phase string, err error) {
	r, trigger, ok := strings.Cut(val, "@")
	if !ok {
		return 0, 0, "", fmt.Errorf("%q needs rank@N or rank@phase[:N]", val)
	}
	rank, err = strconv.Atoi(r)
	if err != nil {
		return 0, 0, "", err
	}
	if at, err = strconv.ParseInt(trigger, 10, 64); err == nil {
		return rank, at, "", nil
	}
	phase, nth, hasNth := strings.Cut(trigger, ":")
	at = 1
	err = nil
	if hasNth {
		at, err = strconv.ParseInt(nth, 10, 64)
	}
	return rank, at, phase, err
}

// Chaos wraps an Endpoint, executing a Plan against its traffic. It is safe
// for the same concurrent use as the Endpoint itself.
type Chaos struct {
	inner *Endpoint
	plan  Plan

	mu  sync.Mutex
	rng *rand.Rand // guarded by mu

	sends   atomic.Int64
	faults  atomic.Int64
	crashed atomic.Bool

	// Phase-scoped crash trigger state: the engine announces pipeline
	// phases through EnterPhase, which swaps the current name and resets
	// the per-phase send counter.
	phase      atomic.Pointer[string]
	phaseSends atomic.Int64
}

// NewChaos wraps e with the plan's fault schedule. The jitter stream is
// derived from the plan seed and the endpoint's rank, so a group of
// wrappers sharing one Plan replays identically run to run.
func NewChaos(e *Endpoint, p Plan) *Chaos {
	p.normalize()
	return &Chaos{
		inner: e,
		plan:  p,
		rng:   rand.New(rand.NewSource(p.Seed ^ (int64(e.Rank())+1)*0x9e3779b97f4a7c1)),
	}
}

// Rank implements Conn.
func (c *Chaos) Rank() int { return c.inner.Rank() }

// Size implements Conn.
func (c *Chaos) Size() int { return c.inner.Size() }

// Counters implements Conn.
func (c *Chaos) Counters() *Counters { return c.inner.Counters() }

// MaxQueueDepth implements Conn.
func (c *Chaos) MaxQueueDepth() int { return c.inner.MaxQueueDepth() }

// Close implements Conn.
func (c *Chaos) Close() error { return c.inner.Close() }

// Depart forwards a clean exit to the wrapped endpoint. A crashed rank's
// endpoint is already closed, so its peers still see the loss.
func (c *Chaos) Depart() {
	if !c.crashed.Load() {
		c.inner.Depart()
	}
}

// SetPeerDownHandler implements Conn, delegating to the wrapped endpoint:
// recovery hooks must see organic and injected peer losses identically.
func (c *Chaos) SetPeerDownHandler(h func(rank int, cause error) bool) {
	c.inner.SetPeerDownHandler(h)
}

// EnterPhase announces a pipeline phase transition for the plan's
// phase-scoped crash trigger: the per-phase send counter restarts so
// CrashAfter counts sends inside the named phase only. The engine calls it
// at every phase boundary; transports without a chaos wrapper never see it.
func (c *Chaos) EnterPhase(name string) {
	c.phase.Store(&name)
	c.phaseSends.Store(0)
}

// crashDue reports whether this send ordinal trips the plan's crash
// trigger — positional against the run-wide counter, or scoped to the
// named phase's own counter.
func (c *Chaos) crashDue(me int, n int64) bool {
	if c.plan.CrashRank != me {
		return false
	}
	if c.plan.CrashPhase == "" {
		return n >= c.plan.CrashAfter
	}
	p := c.phase.Load()
	if p == nil || *p != c.plan.CrashPhase {
		return false
	}
	return c.phaseSends.Add(1) >= c.plan.CrashAfter
}

// Recv implements Conn.
func (c *Chaos) Recv(tag int) (Message, error) { return c.inner.Recv(tag) }

// RecvMatch implements Conn.
func (c *Chaos) RecvMatch(match func(tag int) bool) (Message, error) {
	return c.inner.RecvMatch(match)
}

// TryRecvMatch implements Conn.
func (c *Chaos) TryRecvMatch(match func(tag int) bool) (Message, bool, error) {
	return c.inner.TryRecvMatch(match)
}

// SendAbort implements Conn. A crashed rank cannot say goodbye: its
// endpoint is already closed, so the abort fails with ErrClosed and peers
// are left to detect the loss, exactly like a killed process.
func (c *Chaos) SendAbort(to int, payload []byte) error {
	return c.inner.SendAbort(to, payload)
}

// FaultsInjected returns how many scheduled faults have fired; the engine
// surfaces it in per-rank stats.
func (c *Chaos) FaultsInjected() int64 { return c.faults.Load() }

// Send implements Conn, applying the fault schedule: delay/throttle first
// (latency precedes delivery), then any positional fatal fault due at this
// send ordinal.
func (c *Chaos) Send(to, tag int, data []byte) error {
	me := c.inner.Rank()
	if c.crashed.Load() {
		return fmt.Errorf("chaos: rank %d crashed: %w", me, ErrInjected)
	}
	n := c.sends.Add(1)
	c.injectDelay(me)
	if c.crashDue(me, n) {
		c.crashed.Store(true)
		c.faults.Add(1)
		c.inner.Close()
		return fmt.Errorf("chaos: rank %d crashed at send %d: %w", me, n, ErrInjected)
	}
	if c.plan.CorruptRank == me && n == c.plan.CorruptAfter {
		c.faults.Add(1)
		if c.inner.corruptFn != nil {
			c.inner.corruptFn(to)
		}
	}
	if c.plan.DropRank == me && n == c.plan.DropAfter {
		c.faults.Add(1)
		if c.inner.dropFn != nil {
			c.inner.dropFn(c.plan.DropPeer)
		}
	}
	return c.inner.Send(to, tag, data)
}

// injectDelay sleeps out this send's share of the schedule's latency. The
// sleep runs in the sending goroutine before the real send, so message
// order — and therefore output — is untouched.
func (c *Chaos) injectDelay(me int) {
	d := c.plan.Delay
	if c.plan.Jitter > 0 {
		c.mu.Lock()
		d += time.Duration(c.rng.Int63n(int64(c.plan.Jitter)))
		c.mu.Unlock()
	}
	if me == c.plan.SlowRank {
		d *= time.Duration(c.plan.SlowFactor)
	}
	if d <= 0 {
		return
	}
	// The OS sleep granularity is on the order of a millisecond, which would
	// inflate a microsecond-scale schedule a thousandfold; short delays
	// busy-wait instead, so injected latency stays proportional to the plan.
	if d >= time.Millisecond {
		time.Sleep(d) // reptile-lint:allow nosleepsync injected link latency, not synchronization
		return
	}
	for start := time.Now(); time.Since(start) < d; {
		runtime.Gosched()
	}
}
