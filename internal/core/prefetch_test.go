package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"reptile/internal/kmer"
	"reptile/internal/msgplane"
	"reptile/internal/stats"
	"reptile/internal/transport"
)

// fakeAnswer is the spectrum a planeRig's responders serve: a pure function
// of (kind, id), so every answer the plane holds can be checked.
func fakeAnswer(kind byte, id kmer.ID) batchAnswer {
	x := kmer.HashID(id) + uint64(kind)
	return batchAnswer{Count: uint32(x % 13), Exists: x%3 != 0}
}

// planeRig is a two-rank proc group where rank 0 runs a prefetch plane over
// a real dispatcher and both ranks answer batch frames from fakeAnswer. It
// records every id each responder was asked for.
type planeRig struct {
	eps   []*transport.Endpoint
	disp  *lookupDispatcher
	plane *prefetchPlane
	// gate, when non-nil, holds every responder before it answers; asked
	// receives one value per frame a responder takes.
	gate    chan struct{}
	asked   chan struct{}
	release func() // opens the gate for good; safe to call twice

	mu   sync.Mutex
	sent map[[2]uint64]int // (kind, id) → times requested
	wg   sync.WaitGroup
}

func newPlaneRig(t *testing.T, gated bool) *planeRig {
	t.Helper()
	eps, err := transport.NewProcGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	r := &planeRig{
		eps:   eps,
		disp:  newLookupDispatcher(eps[0], 2, 0),
		plane: newPrefetchPlane(2),
		sent:  make(map[[2]uint64]int),
	}
	if gated {
		r.gate = make(chan struct{})
		// Sized past the frames any one test issues, so a responder never
		// blocks announcing a frame.
		r.asked = make(chan struct{}, 1024)
		r.release = sync.OnceFunc(func() { close(r.gate) })
	}
	for rank := range eps {
		r.wg.Add(1)
		go r.respond(rank)
	}
	t.Cleanup(func() {
		if r.release != nil {
			r.release() // a failed gated test must not strand its responders
		}
		transport.CloseGroup(eps)
		r.wg.Wait()
	})
	return r
}

// respond serves batch requests at one rank, and at rank 0 also routes the
// batch responses back to the dispatcher, until the group closes.
func (r *planeRig) respond(rank int) {
	defer r.wg.Done()
	e := r.eps[rank]
	for {
		m, err := e.RecvMatch(func(tag int) bool {
			return tag == int(tagBatchReq) || (rank == 0 && tag == int(tagBatchResp))
		})
		if err != nil {
			return
		}
		if m.Tag == int(tagBatchResp) {
			if err := r.disp.deliver(m); err != nil {
				r.disp.fail(err)
			}
			continue
		}
		reqID, kind, ids, err := decodeBatchReq(m.Data)
		if err != nil {
			r.disp.fail(err)
			return
		}
		answers := make([]batchAnswer, len(ids))
		r.mu.Lock()
		for i, id := range ids {
			answers[i] = fakeAnswer(kind, id)
			r.sent[[2]uint64{uint64(kind), uint64(id)}]++
		}
		r.mu.Unlock()
		if r.gate != nil {
			r.asked <- struct{}{}
			<-r.gate
		}
		if msgplane.Send(e, m.From, tagBatchResp, encodeBatchResp(reqID, answers)) != nil {
			return
		}
	}
}

// oracle returns a fresh worker oracle over the rig's shared plane.
func (r *planeRig) oracle(batch int) *distOracle {
	return &distOracle{rank: 0, np: 2, st: &stats.Rank{}, disp: r.disp, batch: batch, plane: r.plane}
}

func (r *planeRig) timesSent(kind byte, id kmer.ID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sent[[2]uint64{uint64(kind), uint64(id)}]
}

// checkAnswered fails unless the plane answers every id with fakeAnswer.
func checkAnswered(t *testing.T, p *prefetchPlane, kind byte, ids []kmer.ID) {
	t.Helper()
	for _, id := range ids {
		cnt, exists, ok := p.answer(kind, id)
		want := fakeAnswer(kind, id)
		if !ok || cnt != want.Count || exists != want.Exists {
			t.Fatalf("kind %d id %d: answer (%d,%v,%v), want (%d,%v)", kind, id, cnt, exists, ok, want.Count, want.Exists)
		}
	}
}

// TestPrefetchPlaneMatchesMapModel drives the flat tables with random
// batches of ids (ID 0 and duplicates included) of both kinds and checks
// them against a plain map that follows the same cap rule: after every
// resolve the plane answers exactly the ids the model holds, and each id
// went on the wire once per time the model lost it.
func TestPrefetchPlaneMatchesMapModel(t *testing.T) {
	for _, limit := range []int{maxPrefetchEntries, 40} {
		rig := newPlaneRig(t, false)
		rig.plane.limit = limit
		o := rig.oracle(5)
		rng := rand.New(rand.NewSource(int64(limit)))
		model := make(map[[2]uint64]batchAnswer)
		fetched := make(map[[2]uint64]int)
		pool := []kmer.ID{0, 1, 2, 1 << 63, ^kmer.ID(0)}
		for len(pool) < 200 {
			pool = append(pool, kmer.ID(rng.Uint64()))
		}
		for step := 0; step < 400; step++ {
			kind := byte(rng.Intn(2))
			ids := make([]kmer.ID, 1+rng.Intn(12))
			for i := range ids {
				ids[i] = pool[rng.Intn(len(pool))]
			}
			if rng.Intn(4) == 0 {
				ids = append(ids, ids[0]) // a duplicate inside one batch
			}
			if len(model) > limit {
				clear(model)
			}
			for _, id := range ids {
				k := [2]uint64{uint64(kind), uint64(id)}
				if _, ok := model[k]; !ok {
					model[k] = fakeAnswer(kind, id)
					fetched[k]++
				}
			}
			if err := rig.plane.resolve(o, kind, ids); err != nil {
				t.Fatal(err)
			}
			checkAnswered(t, rig.plane, kind, ids)
			for k := byte(0); k < 2; k++ {
				for _, id := range pool {
					_, inModel := model[[2]uint64{uint64(k), uint64(id)}]
					if _, _, ok := rig.plane.answer(k, id); ok != inModel {
						t.Fatalf("cap %d step %d: kind %d id %d answered=%v, model %v", limit, step, k, id, ok, inModel)
					}
				}
			}
		}
		for k, n := range fetched {
			if got := rig.timesSent(byte(k[0]), kmer.ID(k[1])); got != n {
				t.Fatalf("cap %d: kind %d id %d sent %d times, model fetched it %d", limit, k[0], k[1], got, n)
			}
		}
		tables := rig.plane.tables
		if tables[0].answered+tables[1].answered != len(model) {
			t.Fatalf("cap %d: %d answered slots, model holds %d", limit, tables[0].answered+tables[1].answered, len(model))
		}
	}
}

// waitUntil spins (yielding) until cond holds under the plane lock.
func waitUntil(t *testing.T, p *prefetchPlane, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.mu.Lock()
		ok := cond()
		p.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		runtime.Gosched()
	}
}

func (t *preTable) stateOf(id kmer.ID) byte { return t.state[t.slot(id)] }

// TestPrefetchPlaneCapDropKeepsPendingIDs reaches the cap while one
// resolver's ids are in flight and another's are staged: the drop must
// forget only the answered slots, so every waiter still completes, the
// in-flight and staged ids go on the wire exactly once, and only the
// dropped answers are fetched again.
func TestPrefetchPlaneCapDropKeepsPendingIDs(t *testing.T) {
	rig := newPlaneRig(t, true)
	p := rig.plane
	ids := func(lo, n int) []kmer.ID {
		out := make([]kmer.ID, n)
		for i := range out {
			out[i] = kmer.ID(lo + i)
		}
		return out
	}
	answered, inflight, staged := ids(0, 20), ids(100, 10), ids(200, 10)

	run := func(o *distOracle, ids []kmer.ID) chan error {
		done := make(chan error, 1)
		go func() { done <- p.resolve(o, kindTile, ids) }()
		return done
	}
	// Fill the table with answers.
	pre := run(rig.oracle(32), answered)
	owners := map[int]bool{}
	for _, id := range answered {
		owners[kmer.Owner(id, 2)] = true
	}
	for range owners { // one frame per owner
		<-rig.asked
		rig.gate <- struct{}{}
	}
	if err := <-pre; err != nil {
		t.Fatal(err)
	}
	// A leads a flush that stays in flight at the gated responders.
	a := run(rig.oracle(32), inflight)
	<-rig.asked
	waitUntil(t, p, "A's ids are in flight", func() bool {
		for _, id := range inflight {
			if p.tables[kindTile].stateOf(id) != slotInflight {
				return false
			}
		}
		return true
	})
	// B stages its ids and parks behind A's round.
	b := run(rig.oracle(32), staged)
	waitUntil(t, p, "B's ids are staged", func() bool {
		for _, id := range staged {
			if p.tables[kindTile].stateOf(id) != slotStaged {
				return false
			}
		}
		return true
	})
	// C enters over the cap: the drop must keep A's and B's ids.
	p.mu.Lock()
	p.limit = 5
	p.mu.Unlock()
	c := run(rig.oracle(32), append(answered[:5:5], staged[0]))
	waitUntil(t, p, "C dropped the answers", func() bool {
		return p.tables[kindTile].answered == 0 && p.tables[kindTile].stateOf(answered[0]) == slotStaged
	})
	p.mu.Lock()
	tab := &p.tables[kindTile]
	for _, id := range inflight {
		if st := tab.stateOf(id); st != slotInflight {
			t.Errorf("in-flight id %d has state %d after the drop", id, st)
		}
	}
	for _, id := range staged {
		if st := tab.stateOf(id); st != slotStaged {
			t.Errorf("staged id %d has state %d after the drop", id, st)
		}
	}
	if want := len(inflight) + len(staged) + 5; tab.used != want {
		t.Errorf("%d used slots after the drop, want %d", tab.used, want)
	}
	p.mu.Unlock()

	if _, _, ok := p.answer(kindTile, inflight[0]); ok {
		t.Error("an in-flight id reads as answered")
	}
	rig.release()
	for name, ch := range map[string]chan error{"A": a, "B": b, "C": c} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("resolver %s: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("resolver %s hung after the cap drop", name)
		}
	}
	checkAnswered(t, p, kindTile, append(append(inflight, staged...), answered[:5]...))
	for _, id := range append(inflight, staged...) {
		if n := rig.timesSent(kindTile, id); n != 1 {
			t.Errorf("id %d sent %d times, want once", id, n)
		}
	}
	for i, id := range answered {
		want := 1
		if i < 5 {
			want = 2 // dropped, then refetched by C
		}
		if n := rig.timesSent(kindTile, id); n != want {
			t.Errorf("answered id %d sent %d times, want %d", id, n, want)
		}
	}
}

// TestPrefetchPlaneConcurrentResolvers runs four workers over one plane
// with overlapping random batches (run it under -race): every worker gets
// its answers, and no id is fetched twice while the cap is never reached.
func TestPrefetchPlaneConcurrentResolvers(t *testing.T) {
	rig := newPlaneRig(t, false)
	const workers = 4
	pool := make([]kmer.ID, 600)
	for i := range pool {
		pool[i] = kmer.ID(i * 7919)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := rig.oracle(8)
			rng := rand.New(rand.NewSource(int64(w)))
			for step := 0; step < 150; step++ {
				kind := byte(rng.Intn(2))
				ids := make([]kmer.ID, 1+rng.Intn(16))
				for i := range ids {
					ids[i] = pool[rng.Intn(len(pool))]
				}
				if err := rig.plane.resolve(o, kind, ids); err != nil {
					errs <- err
					return
				}
				for _, id := range ids {
					cnt, exists, ok := rig.plane.answer(kind, id)
					if want := fakeAnswer(kind, id); !ok || cnt != want.Count || exists != want.Exists {
						t.Errorf("worker %d: kind %d id %d answered (%d,%v,%v)", w, kind, id, cnt, exists, ok)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	rig.mu.Lock()
	defer rig.mu.Unlock()
	for k, n := range rig.sent {
		if n != 1 {
			t.Errorf("kind %d id %d fetched %d times", k[0], k[1], n)
		}
	}
}

// TestPrefetchPlaneAllocations pins the hot path's allocation bars: reading
// an answer and resolving already-answered ids allocate nothing, and a
// flush round allocates no more than sending the same frame straight
// through the dispatcher does.
func TestPrefetchPlaneAllocations(t *testing.T) {
	rig := newPlaneRig(t, false)
	p := rig.plane
	o := rig.oracle(32)
	// ids owned by rank 1, handed out fresh to every measured round.
	next := kmer.ID(1)
	fresh := func(n int) []kmer.ID {
		out := make([]kmer.ID, 0, n)
		for ; len(out) < n; next++ {
			if kmer.Owner(next, 2) == 1 {
				out = append(out, next)
			}
		}
		return out
	}
	// Warm the plane past every growth step the measured rounds could hit.
	for i := 0; i < 700; i++ {
		if err := p.resolve(o, kindTile, fresh(8)); err != nil {
			t.Fatal(err)
		}
	}
	known := fresh(8)
	if err := p.resolve(o, kindTile, known); err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(200, func() { p.answer(kindTile, known[3]) }); n != 0 {
		t.Errorf("answer allocates %.0f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := p.resolve(o, kindTile, known); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("resolve of answered ids allocates %.0f times per call, want 0", n)
	}

	const runs = 200
	batches := make([][]kmer.ID, 2*(runs+1))
	for i := range batches {
		batches[i] = fresh(8)
	}
	i := 0
	direct := testing.AllocsPerRun(runs, func() {
		if _, err := rig.disp.roundTrip(1, kindTile, batches[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	round := testing.AllocsPerRun(runs, func() {
		if err := p.resolve(o, kindTile, batches[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if round > direct {
		t.Errorf("a flush round allocates %.0f times, the same frame through the dispatcher %.0f", round, direct)
	}
}

// TestPrefetchPlanePinnedCounters pins a seeded batched proc run's wire
// and lookup counters to the values the map-backed plane produced: the
// flat tables change where answers live, never what goes on the wire or
// how lookups are counted.
func TestPrefetchPlanePinnedCounters(t *testing.T) {
	ds, opts := testDataset(t, 1500, 4242)
	opts.Heuristics = Heuristics{LookupBatch: 32, Workers: 1}
	out, err := Run(&MemorySource{Reads: ds.Reads}, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(f func(r *statsRank) int64) int64 { return out.Run.Sum(f) }
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"MsgsSent", sum(func(r *statsRank) int64 { return r.MsgsSent }), 9064},
		{"BytesSent", sum(func(r *statsRank) int64 { return r.BytesSent }), 489764},
		{"BatchesSent", sum(func(r *statsRank) int64 { return r.BatchesSent }), 4507},
		{"BatchedLookups", sum(func(r *statsRank) int64 { return r.BatchedLookups }), 17475},
		{"KmerLookupsRemote", sum(func(r *statsRank) int64 { return r.KmerLookupsRemote }), 161},
		{"TileLookupsRemote", sum(func(r *statsRank) int64 { return r.TileLookupsRemote }), 19809},
		{"KmerLookupsLocal", sum(func(r *statsRank) int64 { return r.KmerLookupsLocal }), 60},
		{"TileLookupsLocal", sum(func(r *statsRank) int64 { return r.TileLookupsLocal }), 6579},
		{"RemoteMisses", sum(func(r *statsRank) int64 { return r.RemoteMisses }), 8582},
		{"BasesCorrected", out.Result.BasesCorrected, 219},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, pinned %d", c.name, c.got, c.want)
		}
	}
}
