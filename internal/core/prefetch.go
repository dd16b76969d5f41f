package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"reptile/internal/kmer"
	"reptile/internal/msgplane"
	"reptile/internal/transport"
)

// maxPrefetchEntries bounds the answers the plane holds. Entries never go
// stale — the global spectra are static during Step IV — so the cap only
// bounds memory: on overflow the answered slots are dropped and refilled.
const maxPrefetchEntries = 1 << 16

// prefetchPlane is the rank-wide prefetch accumulator shared by every
// correction worker. It fixes the two ways a private-per-worker prefetch
// buffer fragments batching (BENCH_lookup's workers=4 regression):
//
//   - redundant traffic: workers correcting overlapping genomic loci each
//     fetched the same hot ids into their own buffers (~18% duplicate ids
//     at 4 workers). The plane keeps one answer table per kind, so an id
//     any worker fetched answers every worker.
//   - thin frames: each worker coalesced only its own misses per owner, so
//     concurrency split what would have been one frame into Workers thinner
//     ones. The plane stages misses in shared per-(kind,owner) lists and
//     flushes with leader combining: whoever finds no flush in progress
//     takes *everything* staged — its own ids plus whatever siblings staged
//     while the previous flush was in flight — into maximally thick frames.
//
// The combining is group-commit without timers: a resolver whose ids are
// staged while a flush is running parks on the round channel; the ids that
// pile up during that round all travel in the next leader's flush. On a
// single-core host workers interleave exactly at these block points, which
// is what re-fattens the frames.
//
// Frame ids are sorted before encode, so the delta+varint wire codec sees
// minimal deltas. Answers are applied by the consuming lookup (counters,
// cache writes) exactly as a live round trip would be — the plane itself
// touches no statistics except the flush leader's failover counter.
type prefetchPlane struct {
	np    int
	limit int // answered slots (both kinds) past which resolve drops them

	mu sync.Mutex
	// tables[kind] tracks every id the plane knows: staged, in flight, or
	// answered. guarded by mu
	tables [2]preTable
	// pending[kind][owner] holds staged ids not yet taken by a flush; the
	// leader swaps each non-empty list with spare[kind][owner] and hands it
	// back when its round ends, so the lists ping-pong without copying.
	pending  [2][][]kmer.ID // guarded by mu
	spare    [2][][]kmer.ID // guarded by mu
	flushing bool           // guarded by mu
	// round is closed when the running flush round completes; made only
	// when a resolver has to park on it. guarded by mu
	round chan struct{}
	err   error    // first transport error; poisons the plane. guarded by mu
	keep  []uint64 // cap-drop scratch. guarded by mu

	// Leader scratch, reused across rounds: only the goroutine that set
	// flushing touches it, so it needs no lock.
	frames []flushFrame
	calls  []issuedCall
	retry  []flushFrame
}

// newPrefetchPlane builds the rank's shared prefetch state.
func newPrefetchPlane(np int) *prefetchPlane {
	p := &prefetchPlane{np: np, limit: maxPrefetchEntries}
	for k := range p.tables {
		p.tables[k] = newPreTable(preTableMinSlots)
		p.pending[k] = make([][]kmer.ID, np)
		p.spare[k] = make([][]kmer.ID, np)
	}
	return p
}

// Slot states of a preTable. A slot only ever advances (empty → staged →
// inflight → hit|miss), so the table never deletes in place and needs no
// tombstones; the cap drop rebuilds instead.
const (
	slotEmpty byte = iota
	slotStaged
	slotInflight
	slotHit
	slotMiss
)

// preTableMinSlots is a fresh table's size; it doubles at half load.
const preTableMinSlots = 1 << 10

// preTable is one kind's answer table: a linear-probe slab keyed by id from
// kmer.HashID(id) & mask, like spectrum.PackedStore. ID 0 (the all-A
// k-mer) is a legal key, so emptiness lives in the state byte, not in keys.
type preTable struct {
	keys     []uint64
	counts   []uint32 // the owner's answer, kept verbatim for hits and misses
	state    []byte
	mask     uint64
	used     int // non-empty slots
	answered int // hit and miss slots
}

func newPreTable(slots int) preTable {
	return preTable{
		keys:   make([]uint64, slots),
		counts: make([]uint32, slots),
		state:  make([]byte, slots),
		mask:   uint64(slots - 1),
	}
}

// slot returns the index holding id, or the empty slot where it belongs.
//
// reptile-lint:hotpath
func (t *preTable) slot(id kmer.ID) uint64 {
	i := kmer.HashID(id) & t.mask
	for t.state[i] != slotEmpty && t.keys[i] != uint64(id) {
		i = (i + 1) & t.mask
	}
	return i
}

// stage claims an empty slot for id, doubling the table first if the claim
// would pass half load.
func (t *preTable) stage(i uint64, id kmer.ID) {
	if 2*(t.used+1) > len(t.state) {
		t.grow()
		i = t.slot(id)
	}
	t.keys[i] = uint64(id)
	t.state[i] = slotStaged
	t.used++
}

// grow rehashes every slot into a table of twice the size.
func (t *preTable) grow() {
	old := *t
	*t = newPreTable(2 * len(old.state))
	t.used, t.answered = old.used, old.answered
	for i, st := range old.state {
		if st != slotEmpty {
			j := t.slot(kmer.ID(old.keys[i]))
			t.keys[j], t.counts[j], t.state[j] = old.keys[i], old.counts[i], st
		}
	}
}

// dropAnswered empties the answered slots in place and reinserts the staged
// and in-flight ids their resolvers still wait on; keep is scratch for
// those ids and comes back for reuse.
func (t *preTable) dropAnswered(keep []uint64) []uint64 {
	keep = keep[:0]
	for i, st := range t.state {
		if st == slotStaged {
			keep = append(keep, t.keys[i])
		}
	}
	staged := len(keep)
	for i, st := range t.state {
		if st == slotInflight {
			keep = append(keep, t.keys[i])
		}
	}
	clear(t.state)
	t.used, t.answered = len(keep), 0
	for j, k := range keep {
		i := t.slot(kmer.ID(k))
		t.keys[i], t.state[i] = k, slotStaged
		if j >= staged {
			t.state[i] = slotInflight
		}
	}
	return keep
}

// answer reads one prefetched answer, if present.
//
// reptile-lint:hotpath
func (p *prefetchPlane) answer(kind byte, id kmer.ID) (cnt uint32, exists, ok bool) {
	t := &p.tables[kind&1]
	p.mu.Lock()
	i := t.slot(id)
	st, cnt := t.state[i], t.counts[i]
	p.mu.Unlock()
	return cnt, st == slotHit, st >= slotHit
}

// flushFrame is one per-(owner,kind) id list a flush round sends.
type flushFrame struct {
	owner int
	kind  byte
	ids   []kmer.ID
}

// issuedCall is one started batch frame awaiting collection.
type issuedCall struct {
	call *msgplane.Call
	flushFrame
}

// resolve blocks until every id in ids is answered in the plane (or the
// plane is poisoned). ids must already be filtered to genuinely-remote
// lookups; duplicates are tolerated. The calling worker's oracle supplies
// the dispatcher, the recovery route, and the stats shard that absorbs any
// failovers its own flush rounds take.
//
// reptile-lint:hotpath
func (p *prefetchPlane) resolve(o *distOracle, kind byte, ids []kmer.ID) error {
	ki := int(kind & 1)
	t := &p.tables[ki]
	p.mu.Lock()
	if p.tables[0].answered+p.tables[1].answered > p.limit {
		// Waiters whose answers vanish simply restage them.
		for k := range p.tables {
			p.keep = p.tables[k].dropAnswered(p.keep)
		}
	}
	for {
		if p.err != nil {
			err := p.err
			p.mu.Unlock()
			return err
		}
		missing := 0
		for _, id := range ids {
			i := t.slot(id)
			switch t.state[i] {
			case slotHit, slotMiss:
				continue
			case slotEmpty:
				t.stage(i, id)
				owner := kmer.Owner(id, p.np)
				p.pending[ki][owner] = append(p.pending[ki][owner], id)
			}
			missing++
		}
		if missing == 0 {
			p.mu.Unlock()
			return nil
		}
		if p.flushing {
			// A sibling's flush is in flight; our staged ids ride the next
			// round. Park until this round completes, then re-check.
			if p.round == nil {
				// reptile-lint:allow hotpath one channel per contended round, and the parker blocks on it anyway
				p.round = make(chan struct{})
			}
			round := p.round
			p.mu.Unlock()
			<-round
			p.mu.Lock()
			continue
		}
		// Become the leader: take every staged id of both kinds — ours and
		// whatever siblings accumulated — and flush outside the lock.
		p.flushing = true
		p.takePending()
		p.mu.Unlock()
		ferr := p.flush(o)
		p.mu.Lock()
		for _, f := range p.frames {
			p.spare[f.kind][f.owner] = f.ids[:0]
		}
		if ferr != nil && p.err == nil {
			p.err = ferr
		}
		p.flushing = false
		if p.round != nil {
			close(p.round)
			p.round = nil
		}
	}
}

// takePending moves every staged id into the leader's frames, swapping
// each non-empty pending list with its spare, and marks the ids in flight.
//
// reptile-lint:holds mu
func (p *prefetchPlane) takePending() {
	p.frames = p.frames[:0]
	for ki := range p.pending {
		t := &p.tables[ki]
		for owner, list := range p.pending[ki] {
			if len(list) == 0 {
				continue
			}
			p.pending[ki][owner], p.spare[ki][owner] = p.spare[ki][owner], nil
			for _, id := range list {
				t.state[t.slot(id)] = slotInflight
			}
			p.frames = append(p.frames, flushFrame{owner: owner, kind: byte(ki), ids: list})
		}
	}
}

// flush issues every frame before waiting on any (the dispatcher's
// in-flight window is the pipeline depth), publishes the answers, and
// reroutes frames that hit a dying peer through the oracle's failover
// path. Runs outside the plane lock, on the leader's scratch.
func (p *prefetchPlane) flush(o *distOracle) error {
	var firstErr error
	p.calls, p.retry = p.calls[:0], p.retry[:0]
	for _, f := range p.frames {
		// Sorted ids collapse to minimal zigzag deltas on the wire.
		slices.Sort(f.ids)
		dest := f.owner
		if o.rec != nil {
			dest = o.rec.holderOf(f.owner)
		}
		for list := f.ids; len(list) > 0; {
			n := min(len(list), o.batch)
			part := flushFrame{owner: f.owner, kind: f.kind, ids: list[:n]}
			list = list[n:]
			call, err := o.disp.start(dest, f.kind, part.ids)
			if err != nil {
				if o.rec != nil && errors.Is(err, transport.ErrPeerDown) {
					// The holder died under the frame; reissue synchronously
					// after the collect, through the failover route.
					p.retry = append(p.retry, part)
					continue
				}
				firstErr = err
				break
			}
			p.calls = append(p.calls, issuedCall{call: call, flushFrame: part})
		}
		if firstErr != nil {
			break
		}
	}
	// Collect every issued frame even after an error — abandoning a call
	// would leak its window slot until the dispatcher is poisoned.
	for _, c := range p.calls {
		answers, err := o.disp.wait(c.call)
		if err == nil {
			err = p.publish(c.kind, c.ids, answers)
		} else if o.rec != nil && errors.Is(err, transport.ErrPeerDown) {
			p.retry = append(p.retry, c.flushFrame)
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, f := range p.retry {
		if firstErr != nil {
			break
		}
		answers, err := o.batchLookup(f.kind, f.ids, f.owner)
		if err == nil {
			err = p.publish(f.kind, f.ids, answers)
		}
		firstErr = err
	}
	return firstErr
}

// publish installs one frame's answers over its in-flight slots.
func (p *prefetchPlane) publish(kind byte, ids []kmer.ID, answers []batchAnswer) error {
	if len(answers) != len(ids) {
		return fmt.Errorf("core: batch of %d ids answered with %d entries", len(ids), len(answers))
	}
	t := &p.tables[kind&1]
	p.mu.Lock()
	for j, id := range ids {
		i := t.slot(id)
		t.counts[i] = answers[j].Count
		t.state[i] = slotMiss
		if answers[j].Exists {
			t.state[i] = slotHit
		}
	}
	t.answered += len(ids)
	p.mu.Unlock()
	return nil
}
