package core

import (
	"errors"
	"fmt"
	"sync"

	"reptile/internal/kmer"
	"reptile/internal/msgplane"
	"reptile/internal/spectrum"
	"reptile/internal/stats"
	"reptile/internal/transport"
)

// distOracle resolves spectrum lookups for the corrector during Step IV,
// implementing the paper's lookup chain: owned table → replicated/group
// copy → retained reads table (with resolved global counts) → message to
// the owning rank's communication thread.
//
// Each worker goroutine owns one distOracle. The owned/replicated/group
// stores are read-only during correction and safe to share; the reads
// tables are shared too but mutated by the cache heuristic, so multi-worker
// runs serialize that access through cacheMu.
type distOracle struct {
	e    transport.Conn
	st   *stats.Rank
	rank int
	np   int

	h Heuristics

	// Owned (pruned, global-count) spectra, frozen into packed form.
	// frozen: shared read-only with the responder goroutine
	ownKmer, ownTile *spectrum.PackedStore
	// Full replicas (nil unless the allgather heuristics are on); the
	// layout depends on Heuristics.ReplicatedLayout.
	replKmer, replTile spectrum.Lookuper
	// Partial-replication group copies (nil unless enabled).
	// frozen: packed by groupReplicate
	groupKmer, groupTile *spectrum.PackedStore
	groupSize            int
	// Retained reads tables with *global* counts; an entry with count 0
	// records a resolved "does not exist". Frozen packed stores normally;
	// under CacheRemote they are the mutable cache tables below.
	readsKmer, readsTile spectrum.Lookuper
	// Write side of the CacheRemote heuristic (nil otherwise): the same
	// stores as readsKmer/readsTile, in their mutable form. Multi-worker
	// access is serialized by cacheMu.
	cacheKmer, cacheTile *spectrum.HashStore

	// Batched-lookup state, nil/zero when Heuristics.LookupBatch == 0. The
	// dispatcher and the prefetch plane (the rank-wide answer tables and
	// per-owner accumulator) are shared by every worker of the rank; only
	// the miss-filter scratch is this worker's own.
	disp    *lookupDispatcher
	batch   int
	plane   *prefetchPlane
	preMiss []kmer.ID // scratch: the genuinely-remote subset of one hint
	// cacheMu serializes reads-table access when several workers share the
	// tables under the CacheRemote heuristic; nil in single-worker runs.
	cacheMu *sync.RWMutex

	// rec is the R=2 recovery state (nil unless Options.Replicas >= 2):
	// held replica shards answer their owners' lookups locally, and remote
	// frames route to each shard's current holder with peer-down failover.
	rec *recoveryState

	err error // first transport error; checked by the worker after the run
}

// KmerCount implements reptile.Oracle.
func (o *distOracle) KmerCount(id kmer.ID) (uint32, bool) {
	return o.lookup(kindKmer, id)
}

// TileCount implements reptile.Oracle.
func (o *distOracle) TileCount(id kmer.ID) (uint32, bool) {
	return o.lookup(kindTile, id)
}

// PrefetchKmers implements reptile.Prefetcher.
func (o *distOracle) PrefetchKmers(ids []kmer.ID) { o.prefetch(kindKmer, ids) }

// PrefetchTiles implements reptile.Prefetcher.
func (o *distOracle) PrefetchTiles(ids []kmer.ID) { o.prefetch(kindTile, ids) }

func (o *distOracle) lookup(kind byte, id kmer.ID) (uint32, bool) {
	repl := o.replKmer
	own, group, reads, cache := o.ownKmer, o.groupKmer, o.readsKmer, o.cacheKmer
	if kind == kindTile {
		repl, own, group, reads, cache = o.replTile, o.ownTile, o.groupTile, o.readsTile, o.cacheTile
	}

	if repl != nil {
		o.countLocal(kind)
		return repl.Count(id)
	}

	owner := kmer.Owner(id, o.np)
	if owner == o.rank {
		o.countLocal(kind)
		return own.Count(id) // a miss here is definitive
	}

	if o.rec != nil {
		if s := o.rec.replicaStore(kind, owner); s != nil {
			// The held R=2 copy is an exact slab image of the owner's frozen
			// store, so a miss is as definitive as the owner's own answer.
			o.countLocal(kind)
			return s.Count(id)
		}
	}

	if group != nil && owner/o.groupSize == o.rank/o.groupSize {
		// The group copy is the complete owned spectrum of every group
		// member, so a miss is definitive too.
		o.countLocal(kind)
		return group.Count(id)
	}

	if reads != nil {
		if cnt, ok := o.cachedCount(reads, id); ok {
			o.countLocal(kind)
			if cnt == 0 {
				return 0, false // resolved known-absent
			}
			if o.h.CacheRemote {
				o.st.CacheHits++
			}
			return cnt, true
		}
	}

	// A prefetched answer resolves the lookup without a round trip — from
	// the rank-wide plane, so an id any worker fetched answers every
	// worker. The stats and cache effects are applied at consume time,
	// exactly as a live round trip would — this is what keeps a batched
	// run's counters equal to the unbatched run's.
	if o.plane != nil {
		if cnt, exists, ok := o.plane.answer(kind, id); ok {
			o.finishRemote(kind, id, cnt, exists, cache)
			return cnt, exists
		}
	}

	// Remote round trip to the owner's communication thread.
	var (
		cnt    uint32
		exists bool
		err    error
	)
	if o.disp != nil {
		cnt, exists, err = o.remoteBatched(kind, id, owner)
	} else {
		cnt, exists, err = o.remote(kind, id, owner)
	}
	if err != nil {
		if o.err == nil {
			o.err = err
		}
		return 0, false
	}
	o.finishRemote(kind, id, cnt, exists, cache)
	return cnt, exists
}

// finishRemote applies the statistics and cache effects of one resolved
// remote lookup — identical whether the answer came over a legacy round
// trip, a batch-of-one frame, or the prefetch buffer. The cache write goes
// through the mutable table handle; the frozen read-side view sees it
// because they are the same store under CacheRemote.
func (o *distOracle) finishRemote(kind byte, id kmer.ID, cnt uint32, exists bool, cache *spectrum.HashStore) {
	if kind == kindKmer {
		o.st.KmerLookupsRemote++
	} else {
		o.st.TileLookupsRemote++
	}
	if !exists {
		o.st.RemoteMisses++
	}
	if o.h.CacheRemote && cache != nil {
		v := uint32(0)
		if exists {
			v = cnt
		}
		if o.cacheMu != nil {
			o.cacheMu.Lock()
			cache.Set(id, v)
			o.cacheMu.Unlock()
		} else {
			cache.Set(id, v)
		}
	}
}

// cachedCount reads a reads-table entry, taking the shared-cache lock when
// several workers mutate the table concurrently.
func (o *distOracle) cachedCount(reads spectrum.Lookuper, id kmer.ID) (uint32, bool) {
	if o.cacheMu != nil {
		o.cacheMu.RLock()
		defer o.cacheMu.RUnlock()
	}
	return reads.Count(id)
}

func (o *distOracle) countLocal(kind byte) {
	if kind == kindKmer {
		o.st.KmerLookupsLocal++
	} else {
		o.st.TileLookupsLocal++
	}
}

// prefetch hands the genuinely-remote subset of ids to the shared plane:
// walk the local chain silently (no counters — the real lookups count when
// they consume), then stage the misses for a combined flush with every
// sibling worker's misses. Returns once the plane has answers for all of
// them.
func (o *distOracle) prefetch(kind byte, ids []kmer.ID) {
	if o.plane == nil || o.disp == nil || o.batch <= 0 || o.err != nil || len(ids) == 0 {
		return
	}
	var repl spectrum.Lookuper = o.replKmer
	group, reads := o.groupKmer, o.readsKmer
	if kind == kindTile {
		repl, group, reads = o.replTile, o.groupTile, o.readsTile
	}
	if repl != nil {
		return // every lookup of this kind is local
	}

	o.preMiss = o.preMiss[:0]
	for _, id := range ids {
		owner := kmer.Owner(id, o.np)
		if owner == o.rank {
			continue
		}
		if group != nil && owner/o.groupSize == o.rank/o.groupSize {
			continue
		}
		if o.rec != nil && o.rec.replicaStore(kind, owner) != nil {
			continue // the held replica answers these locally at lookup time
		}
		if reads != nil {
			if _, ok := o.cachedCount(reads, id); ok {
				continue
			}
		}
		o.preMiss = append(o.preMiss, id)
	}
	if len(o.preMiss) == 0 {
		return
	}
	if err := o.plane.resolve(o, kind, o.preMiss); err != nil && o.err == nil {
		o.err = err
	}
}

// remoteBatched resolves one id through the dispatcher as a batch of one —
// the slow path for ids the prefetcher could not anticipate (repairs
// rewrite downstream tiles; k-mer confirmations only run for the rare
// candidates whose tile is solid).
func (o *distOracle) remoteBatched(kind byte, id kmer.ID, owner int) (uint32, bool, error) {
	one := [1]kmer.ID{id}
	answers, err := o.batchLookup(kind, one[:], owner)
	if err != nil {
		return 0, false, err
	}
	if len(answers) != 1 {
		return 0, false, fmt.Errorf("core: batch of 1 id answered with %d entries", len(answers))
	}
	return answers[0].Count, answers[0].Exists, nil
}

// batchLookup issues one batch frame to the rank currently serving owner's
// shard. Without recovery that is the owner itself and any error is final.
// With recovery armed, a peer-down error triggers the failover dance: block
// until the recovery layer classifies the loss (by which time the holder
// map is final), re-read the route, and reissue to the survivor — whose
// replica is an exact slab image, so the answers are byte-identical.
func (o *distOracle) batchLookup(kind byte, ids []kmer.ID, owner int) ([]batchAnswer, error) {
	dest := owner
	if o.rec != nil {
		if dest = o.rec.holderOf(owner); dest != owner {
			o.st.FailoversTaken++
		}
	}
	for attempt := 0; ; attempt++ {
		answers, err := o.disp.roundTrip(dest, kind, ids)
		if err == nil || o.rec == nil || attempt >= o.np {
			return answers, err
		}
		var pd *transport.PeerDownError
		if !errors.As(err, &pd) {
			return nil, err
		}
		if !o.rec.awaitFailover(pd.Rank) {
			return nil, err // unrecoverable loss: surface the original error
		}
		next := o.rec.holderOf(owner)
		if next == dest {
			return nil, err // no surviving route for this shard
		}
		dest = next
		o.st.FailoversTaken++
	}
}

// remote performs one synchronous request/response with the owning rank —
// the legacy unbatched protocol. The single worker issues at most one
// request at a time, so the tagResp stream cannot interleave; a response
// from any other rank is therefore a protocol violation.
func (o *distOracle) remote(kind byte, id kmer.ID, owner int) (uint32, bool, error) {
	tag, payload := encodeReq(o.h.Universal, kind, id)
	if err := msgplane.Send(o.e, owner, tag, payload); err != nil {
		return 0, false, err
	}
	m, err := msgplane.Recv(o.e, tagResp)
	if err != nil {
		return 0, false, err
	}
	if m.From != owner {
		return 0, false, &ProtocolError{Tag: tagResp, Kind: msgplane.ViolationStraySender, From: m.From, Want: owner}
	}
	cnt, exists, err := decodeResp(m.Data)
	if err != nil {
		return 0, false, err
	}
	return cnt, exists, nil
}
