package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"reptile/internal/core"
	"reptile/internal/reads"
	"reptile/internal/serve"
	"reptile/internal/snapshot"
	"reptile/internal/stats"
	"reptile/internal/transport"
)

// serveGroup is a resident rank group over loopback TCP with the front
// door listening on rank 0.
type serveGroup struct {
	eps  []*transport.Endpoint
	svc  *core.SpectrumService // rank 0, the front door's service
	srv  *serve.Server
	wg   sync.WaitGroup // executor ranks 1..np-1
	outs []*core.RankOutput
	errs []error
}

// freeLoopbackAddrs reserves np loopback ports for the rank group.
func freeLoopbackAddrs(np int) ([]string, error) {
	addrs := make([]string, np)
	lns := make([]net.Listener, 0, np)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// startGroup brings the service up and returns it with its set-up time:
// from the first transport.NewTCP call until every rank's StartService has
// returned and the front door listens.
func startGroup(in *input, np int, opts core.Options, tr *tracer) (*serveGroup, time.Duration, error) {
	addrs, err := freeLoopbackAddrs(np)
	if err != nil {
		return nil, 0, err
	}
	g := &serveGroup{eps: make([]*transport.Endpoint, np), outs: make([]*core.RankOutput, np), errs: make([]error, np)}
	src := &core.MemorySource{Reads: in.ds.Reads}
	trace := tr.newTrace()
	root := tr.start("setup", trace, 0)
	defer tr.end(root)
	svcs := make([]*core.SpectrumService, np)
	ready := make([]time.Duration, np)
	var started sync.WaitGroup
	t0 := time.Now()
	for r := 0; r < np; r++ {
		started.Add(1)
		g.wg.Add(1)
		go func(r int) {
			defer g.wg.Done()
			up := false
			defer func() {
				if !up {
					started.Done()
				}
			}()
			sp := tr.start("transport.NewTCP", trace, root)
			e, err := transport.NewTCP(transport.TCPConfig{Rank: r, Addrs: addrs, DialTimeout: 20 * time.Second, Retry: 2 * time.Millisecond})
			tr.end(sp)
			if err != nil {
				g.errs[r] = err
				return
			}
			g.eps[r] = e
			sp = tr.start("core.StartService", trace, root)
			svc, err := core.StartService(e, src, opts)
			tr.end(sp)
			svcs[r], g.errs[r], ready[r] = svc, err, time.Since(t0)
			up = true
			started.Done()
			// Rank 0 is the front door, drained by stop; the others serve
			// until that drain stops the group.
			if err != nil || r == 0 {
				return
			}
			g.outs[r], g.errs[r] = svc.ServeExecutor()
		}(r)
	}
	started.Wait()
	for r, err := range g.errs {
		if err != nil {
			cerr := g.closeEndpoints()
			g.wg.Wait()
			return nil, 0, errors.Join(fmt.Errorf("rank %d start: %w", r, err), cerr)
		}
	}
	g.svc = svcs[0]
	sp := tr.start("serve.Listen", trace, root)
	g.srv, err = serve.Listen("127.0.0.1:0", g.svc)
	tr.end(sp)
	if err != nil {
		_, derr := g.svc.Drain()
		g.wg.Wait()
		return nil, 0, errors.Join(err, derr, g.closeEndpoints())
	}
	setup := time.Since(t0)
	for _, d := range ready {
		setup = max(setup, d)
	}
	return g, setup, nil
}

func (g *serveGroup) closeEndpoints() error {
	var errs error
	for _, e := range g.eps {
		if e != nil {
			errs = errors.Join(errs, e.Close())
		}
	}
	return errs
}

// stop drains the front door and the group and returns every rank's
// output.
func (g *serveGroup) stop() ([]*core.RankOutput, error) {
	g.srv.Shutdown()
	g.outs[0], g.errs[0] = g.svc.Drain()
	g.wg.Wait()
	cerr := g.closeEndpoints()
	for r, err := range g.errs {
		if err != nil {
			return nil, errors.Join(fmt.Errorf("rank %d: %w", r, err), cerr)
		}
	}
	if cerr != nil {
		return nil, fmt.Errorf("closing rank endpoints: %w", cerr)
	}
	return g.outs, nil
}

// chunkResult is one chunk of the load generator, times measured from the
// phase start.
type chunkResult struct {
	due, sent, done time.Duration
	reads           int
	ok              bool
}

// latency is the time from the chunk's due time to its corrected reply; a
// failed chunk is infinitely late.
func (c chunkResult) latency() float64 {
	if !c.ok {
		return math.Inf(1)
	}
	return ms(c.done - c.due)
}

// serviceTime is the time from send to reply.
func (c chunkResult) serviceTime() float64 {
	if !c.ok {
		return math.Inf(1)
	}
	return ms(c.done - c.sent)
}

// openSchedule spaces each connection's chunks evenly at its share of
// chunksPerSec over [0, dur), with a seeded phase per connection and a
// seeded jitter of up to a quarter interval per chunk, so the connections
// never run in lockstep and the due times stay in order.
func openSchedule(seed int64, chunksPerSec float64, conns int, dur time.Duration) [][]time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]time.Duration, conns)
	interval := float64(conns) / chunksPerSec
	for c := range out {
		phase := rng.Float64() * interval
		for j := 0; ; j++ {
			t := phase + float64(j)*interval + (rng.Float64()-0.5)*interval/2
			d := time.Duration(max(t, 0) * float64(time.Second))
			if d >= dur {
				break
			}
			out[c] = append(out[c], d)
		}
	}
	return out
}

// loadgen drives front-door connections. Chunk k is the chunkReads reads
// starting at a seeded offset advanced by k chunks, so a long enough run
// covers the whole read set.
type loadgen struct {
	in     *input
	s      *serveShape
	addr   string
	offset int
	tr     *tracer

	mu     sync.Mutex
	next   int       // guarded by mu; next chunk index
	dialMs []float64 // guarded by mu
	openMs []float64 // guarded by mu
}

func (lg *loadgen) chunk() []reads.Read {
	lg.mu.Lock()
	k := lg.next
	lg.next++
	lg.mu.Unlock()
	n := len(lg.in.ds.Reads)
	span := n - lg.s.chunkReads
	lo := (lg.offset + k*lg.s.chunkReads) % span
	return lg.in.ds.Reads[lo : lo+lg.s.chunkReads]
}

// conn is one front-door client holding one session at a time; every
// sessionChunks chunks it closes the session and opens the next, as a
// client with a stream of jobs would.
type conn struct {
	lg     *loadgen
	cl     *serve.Client
	inSess int
	trace  int64
	// session is the open session's span, recorded by sessTr: the tracer
	// in force when the session opened, so a session that outlives a
	// switch between traced and untraced phases still closes its span.
	session int64
	sessTr  *tracer
}

func (c *conn) connect() error {
	lg := c.lg
	c.trace = lg.tr.newTrace()
	t0 := time.Now()
	sp := lg.tr.start("serve.Dial", c.trace, 0)
	cl, err := serve.Dial(lg.addr)
	lg.tr.end(sp)
	if err != nil {
		return err
	}
	lg.mu.Lock()
	lg.dialMs = append(lg.dialMs, ms(time.Since(t0)))
	lg.mu.Unlock()
	c.cl = cl
	return c.open()
}

func (c *conn) open() error {
	lg := c.lg
	c.sessTr = lg.tr
	c.session = c.sessTr.start("session", c.trace, 0)
	t0 := time.Now()
	sp := lg.tr.start("serve.Client.Open", c.trace, c.session)
	err := c.cl.Open("perfbench")
	lg.tr.end(sp)
	if err != nil {
		return err
	}
	lg.mu.Lock()
	lg.openMs = append(lg.openMs, ms(time.Since(t0)))
	lg.mu.Unlock()
	c.inSess = 0
	return nil
}

func (c *conn) closeSession() error {
	sp := c.lg.tr.start("serve.Client.CloseSession", c.trace, c.session)
	err := c.cl.CloseSession()
	c.lg.tr.end(sp)
	c.sessTr.end(c.session)
	return err
}

// correct sends one chunk and checks the reply against the reference.
func (c *conn) correct(rs []reads.Read) error {
	lg := c.lg
	c.inSess++
	sp := lg.tr.start("serve.Client.Correct", c.trace, c.session)
	out, _, err := c.cl.Correct(rs)
	lg.tr.end(sp)
	if err != nil {
		return err
	}
	if len(out) != len(rs) {
		return fmt.Errorf("%d reads back for a %d-read chunk", len(out), len(rs))
	}
	for i := range out {
		if out[i].Seq != rs[i].Seq {
			return fmt.Errorf("reply read %d is sequence %d, sent %d", i, out[i].Seq, rs[i].Seq)
		}
		if err := lg.in.checkRead(&out[i]); err != nil {
			return err
		}
	}
	return nil
}

// prepare readies the connection for its next chunk before the chunk is
// due: it reconnects after a failure and rotates a finished session, so
// neither sits on a chunk's latency unless the client is already late.
func (c *conn) prepare() error {
	if c.cl == nil {
		return c.connect()
	}
	if c.inSess < c.lg.s.sessionChunks {
		return nil
	}
	if err := c.closeSession(); err != nil {
		return err
	}
	return c.open()
}

// drop abandons a connection that failed; the next prepare dials anew.
func (c *conn) drop() {
	if c.cl == nil {
		return
	}
	// reptile-lint:allow errorflow the chunk's own failure is what gets reported; this close only discards the broken connection
	c.cl.Close()
	c.sessTr.end(c.session)
	c.cl = nil
}

// hangUp ends the session and the connection.
func (c *conn) hangUp() error {
	if c.cl == nil {
		return nil
	}
	err := c.closeSession()
	return errors.Join(err, c.cl.Close())
}

// drive runs one connection through a phase. With dues it is open loop:
// each chunk waits for its due time, or goes at once when the reply to the
// previous one came late. Without dues it is closed loop until the window
// ends.
func (c *conn) drive(t0 time.Time, dues []time.Duration, window time.Duration) []chunkResult {
	var res []chunkResult
	for i := 0; dues == nil || i < len(dues); i++ {
		err := c.prepare()
		var due time.Duration
		if dues != nil {
			due = dues[i]
			if wait := time.Until(t0.Add(due)); wait > 0 {
				timer := time.NewTimer(wait)
				<-timer.C
			}
		} else if due = time.Since(t0); due >= window {
			break
		}
		rs := c.lg.chunk()
		r := chunkResult{due: due, sent: time.Since(t0), reads: len(rs)}
		if err == nil {
			err = c.correct(rs)
		}
		r.done = time.Since(t0)
		r.ok = err == nil
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: chunk failed:", err)
			c.drop()
		}
		res = append(res, r)
	}
	return res
}

// phase runs every connection through one phase concurrently and returns
// the chunks in due order plus the phase wall time.
func (lg *loadgen) phase(conns []*conn, dues [][]time.Duration, window time.Duration) ([]chunkResult, time.Duration) {
	results := make([][]chunkResult, len(conns))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			var d []time.Duration
			if dues != nil {
				d = dues[i]
			}
			results[i] = c.drive(t0, d, window)
		}(i, c)
	}
	wg.Wait()
	wall := time.Since(t0)
	var all []chunkResult
	for _, r := range results {
		all = append(all, r...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].due < all[j].due })
	return all, wall
}

// serveRun is everything one served-path calibration measured.
type serveRun struct {
	setups      []float64 // seconds
	residentMiB float64
	open        []chunkResult
	openWall    time.Duration
	offered     float64   // reads/s the schedule offered
	satRates    []float64 // reads/s of each rateWindow of the saturate phase
	satChunks   int
	satFailed   int
	outs        []*core.RankOutput
	svcStats    stats.Serve
	dialMs      []float64
	openMs      []float64

	sessionChunkMs []float64
	sessionOpenMs  []float64
	snapLoadMs     float64
	snapBytes      int64
	snapEntries    int64
}

// runServe measures the served path: fill the snapshot cache, bring the
// TCP service up warm (several times, keeping the last), then an open-loop
// phase at the offered rate and a closed-loop saturation phase over the
// same connections, then the in-process session and snapshot.Read
// calibrations.
func runServe(in *input, s *serveShape, np int, seed int64, tr *tracer, dir string) (_ *serveRun, err error) {
	opts := in.opts
	cache := filepath.Join(dir, "snapshots")
	if err := os.MkdirAll(cache, 0o755); err != nil {
		return nil, err
	}
	opts.Snapshot = &core.SnapshotOptions{Dir: cache, InputDigest: snapshot.DigestReads(in.ds.Reads)}
	if _, err := core.Run(&core.MemorySource{Reads: in.ds.Reads}, np, opts); err != nil {
		return nil, fmt.Errorf("filling the snapshot cache: %w", err)
	}
	sr := &serveRun{}
	var g *serveGroup
	// On an error return the group still up is stopped; the normal path
	// stops it itself and clears g.
	defer func() {
		if g != nil {
			_, serr := g.stop()
			err = errors.Join(err, serr)
		}
	}()
	for rep := 0; rep < s.setupReps; rep++ {
		if g != nil {
			_, err := g.stop()
			g = nil
			if err != nil {
				return nil, err
			}
		}
		before := settle()
		up, setup, err := startGroup(in, np, opts, tr)
		if err != nil {
			return nil, err
		}
		g = up
		sr.setups = append(sr.setups, setup.Seconds())
		sr.residentMiB = (float64(settle()) - float64(before)) / mib
	}

	rng := rand.New(rand.NewSource(seed))
	lg := &loadgen{in: in, s: s, addr: g.srv.Addr(), offset: rng.Intn(len(in.ds.Reads) - s.chunkReads), tr: tr}
	conns := make([]*conn, s.conns)
	for i := range conns {
		conns[i] = &conn{lg: lg}
		if err := conns[i].connect(); err != nil {
			return nil, err
		}
	}
	dues := openSchedule(rng.Int63(), s.offeredRate/float64(s.chunkReads), s.conns, s.open)
	scheduled := 0
	for _, d := range dues {
		scheduled += len(d)
	}
	sr.offered = float64(scheduled*s.chunkReads) / s.open.Seconds()

	// An untimed closed-loop second lets lazy set-up in the sessions, the
	// rank links and the heap finish before the timed phases.
	lg.tr = nil
	lg.phase(conns, nil, time.Second)
	lg.tr = tr

	sr.open, sr.openWall = lg.phase(conns, dues, 0)
	sat, _ := lg.phase(conns, nil, s.saturate)
	sr.satRates = windowRates(sat, s.saturate)
	sr.satChunks, sr.satFailed = len(sat), len(sat)-okChunks(sat)

	var hangErr error
	for _, c := range conns {
		hangErr = errors.Join(hangErr, c.hangUp())
	}
	if hangErr != nil {
		return nil, fmt.Errorf("hanging up: %w", hangErr)
	}
	sr.dialMs, sr.openMs = lg.dialMs, lg.openMs
	if err := sr.calibrateSession(in, s, g.svc, tr); err != nil {
		return nil, err
	}
	sr.svcStats = g.svc.Stats()
	sr.outs, err = g.stop()
	g = nil
	if err != nil {
		return nil, err
	}
	if err := sr.calibrateSnapshot(cache, tr); err != nil {
		return nil, err
	}
	return sr, nil
}

// okReads counts the reads of the chunks that succeeded.
func okReads(rs []chunkResult) int {
	n := 0
	for _, r := range rs {
		if r.ok {
			n += r.reads
		}
	}
	return n
}

// rateWindow is the width of the windows the saturate phase's throughput
// is taken over; the reported rate is their median, so a transient stall
// of the shared host moves one window, not the run.
const rateWindow = 500 * time.Millisecond

// windowRates returns the reads/s completed in each whole rateWindow of a
// closed-loop phase.
func windowRates(rs []chunkResult, dur time.Duration) []float64 {
	n := int(dur / rateWindow)
	if n == 0 {
		return []float64{float64(okReads(rs)) / dur.Seconds()}
	}
	counts := make([]float64, n)
	for _, r := range rs {
		if i := int(r.done / rateWindow); r.ok && i < n {
			counts[i] += float64(r.reads)
		}
	}
	for i := range counts {
		counts[i] /= rateWindow.Seconds()
	}
	return counts
}

// okChunks counts the chunks that succeeded.
func okChunks(rs []chunkResult) int {
	n := 0
	for _, r := range rs {
		if r.ok {
			n++
		}
	}
	return n
}

const mib = 1 << 20

// calibrateSession corrects the same chunks through an in-process
// core.Session at the front door's rank, which peels the front door off
// the served chunk time.
func (sr *serveRun) calibrateSession(in *input, s *serveShape, svc *core.SpectrumService, tr *tracer) error {
	const sessions = 12
	n := len(in.ds.Reads) - s.chunkReads
	for i := 0; i < sessions; i++ {
		trace := tr.newTrace()
		root := tr.start("session", trace, 0)
		t0 := time.Now()
		sp := tr.start("core.SpectrumService.Open", trace, root)
		sess, err := svc.Open("perfbench-inproc")
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("in-process session: %w", err)
		}
		sr.sessionOpenMs = append(sr.sessionOpenMs, ms(time.Since(t0)))
		for k := 0; k < s.sessionChunks; k++ {
			lo := ((i*s.sessionChunks + k) * s.chunkReads) % n
			rs := in.ds.Reads[lo : lo+s.chunkReads]
			t1 := time.Now()
			sp := tr.start("core.Session.Correct", trace, root)
			out, _, err := sess.Correct(rs)
			tr.end(sp)
			if err != nil {
				return errors.Join(fmt.Errorf("in-process session chunk: %w", err), sess.Close())
			}
			sr.sessionChunkMs = append(sr.sessionChunkMs, ms(time.Since(t1)))
			for j := range out {
				if err := in.checkRead(&out[j]); err != nil {
					return errors.Join(err, sess.Close())
				}
			}
		}
		sp = tr.start("core.Session.Close", trace, root)
		err = sess.Close()
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}

// calibrateSnapshot times snapshot.Read of every rank file in the cache.
func (sr *serveRun) calibrateSnapshot(cache string, tr *tracer) error {
	files, err := filepath.Glob(filepath.Join(cache, "*.rsnap"))
	if err != nil {
		return err
	}
	trace := tr.newTrace()
	for _, f := range files {
		t0 := time.Now()
		sp := tr.start("snapshot.Read", trace, 0)
		_, kmers, tiles, n, err := snapshot.Read(f)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("snapshot %s: %w", f, err)
		}
		sr.snapLoadMs += ms(time.Since(t0))
		sr.snapBytes += n
		sr.snapEntries += int64(kmers.Len() + tiles.Len())
	}
	return nil
}
