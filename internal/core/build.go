package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"reptile/internal/kmer"
	"reptile/internal/msgplane"
	"reptile/internal/reads"
	"reptile/internal/spectrum"
)

// buildParallelism caps one rank's extraction fan-out at its share of the
// process's parallelism: GOMAXPROCS split evenly among the ranks living in
// the process. Requesting more workers than the rank has cores cannot
// speed anything up — the extra goroutines only add handoff, fold, and
// cache overhead (BENCH_build's workers=4 running 0.76x of serial on a
// small host was exactly this, and so were np=2 proc ranks × 2 workers on
// 2 CPUs). Tests override the hook to force the parallel path on machines
// with fewer cores than the sweep requests.
var buildParallelism = func() int {
	return max(1, runtime.GOMAXPROCS(0)/max(1, int(liveRanks.Load())))
}

// liveRanks counts the ranks running in this process. An in-process group
// registers all its ranks before launching any; the single-rank entry
// points (RunRank, RunRankStreaming, StartService's build) register
// themselves.
var liveRanks atomic.Int64

// joinProcess counts n more ranks as living in the process and returns the
// call that removes them again.
func joinProcess(n int) (leave func()) {
	liveRanks.Add(int64(n))
	return func() { liveRanks.Add(-int64(n)) }
}

// specBuilder runs the spectrum construction (Steps II-III) for one rank
// with Heuristics.Workers extraction goroutines and a pipelined count
// exchange. All mutable tables are sharded by hash(id) % workers:
//
//   - extract: worker w scans a contiguous block of the round's reads into
//     its private per-shard tables workK[w][s] / workT[w][s] — no shared
//     writes at all.
//   - fold: goroutine s merges every worker's shard s into the cumulative
//     owned shard (ownK[s]/ownT[s]) and the round's non-owned table
//     (roundK[s]/roundT[s]) — disjoint key ranges, so lock-free.
//   - encode/exchange: the round's non-owned entries are serialized per
//     destination (sorted, into double-buffered reuse slabs) and shipped
//     with a background Alltoallv pair, which overlaps the *next* round's
//     extract/fold/encode. Received entries merge into the owned shards on
//     the main goroutine after the join, so shard writers never overlap.
//
// finish() prunes the owned shards and freezes them into the rankCtx's
// immutable PackedStores; the builder is dead afterwards.
type specBuilder struct {
	ctx  *rankCtx
	nw   int // extraction workers == shard count
	spec kmer.Spec

	// Cumulative owned tables, sharded by shardOf. Shard s is written only
	// by fold goroutine s and the main-goroutine merge; never concurrently.
	ownK, ownT []*spectrum.HashStore
	// Cumulative retained non-owned tables (RetainReadKmers), same sharding;
	// nil when retention is off.
	retK, retT []*spectrum.HashStore
	// Per-worker private extraction tables, indexed [worker][shard].
	workK, workT [][]*spectrum.HashStore
	// Per-shard per-round non-owned tables, deduped before the wire.
	roundK, roundT []*spectrum.HashStore

	// Wire buffers, triple-buffered per destination: round r encodes into
	// set r%3 while set (r-1)%3 rides the in-flight exchange. The third set
	// covers the zero-copy transports: a peer holds a reference to the slab
	// we sent in round r until its own merge of that round finishes, and the
	// earliest event proving every peer merged round r is our join of
	// exchange r+1 — which lands after round r+2's encode. Set r%3 is not
	// reused before round r+3, safely past that join.
	encK, encT [3][][]byte
	// Reused sort scratch for the round encode (HashStore.EntriesInto).
	entryScratch []spectrum.Entry
	// Per-destination delta-codec state for the round encode, reset at the
	// top of each encodeRound call.
	encPrev []uint64
}

// newSpecBuilder builds the sharded tables and registers the builder on the
// context so currentMem accounts them. The worker count is clamped to the
// rank's share of the process's parallelism; at one effective worker the
// builder takes the serial direct-route path, which never allocates the
// per-worker tables.
func (ctx *rankCtx) newSpecBuilder(retain bool) *specBuilder {
	nw := ctx.opts.Heuristics.Workers
	if nw < 1 {
		nw = 1
	}
	if p := buildParallelism(); nw > p && p > 0 {
		nw = p
	}
	b := &specBuilder{ctx: ctx, nw: nw, spec: ctx.opts.Config.Spec}
	shards := func() []*spectrum.HashStore {
		s := make([]*spectrum.HashStore, nw)
		for i := range s {
			s[i] = spectrum.NewHash(0)
		}
		return s
	}
	b.ownK, b.ownT = shards(), shards()
	b.roundK, b.roundT = shards(), shards()
	if retain {
		b.retK, b.retT = shards(), shards()
	}
	if nw > 1 {
		b.workK = make([][]*spectrum.HashStore, nw)
		b.workT = make([][]*spectrum.HashStore, nw)
		for w := 0; w < nw; w++ {
			b.workK[w], b.workT[w] = shards(), shards()
		}
	}
	for set := range b.encK {
		b.encK[set] = make([][]byte, ctx.np)
		b.encT[set] = make([][]byte, ctx.np)
	}
	b.encPrev = make([]uint64, ctx.np)
	ctx.build = b
	return b
}

// shardOf maps an ID to its rank-internal shard. Reusing the owner hash
// keeps shard sizes as uniform as the cross-rank distribution (Fig 3).
//
// reptile-lint:hotpath
func (b *specBuilder) shardOf(id kmer.ID) int {
	return int(kmer.HashID(id) % uint64(b.nw))
}

// extract scans one round's reads into the workers' private shard tables,
// one contiguous block per worker (same partition shape as the correction
// pool). Runs concurrently with an in-flight exchange: workers touch only
// their own tables. The extraction callbacks are built once per worker, not
// once per read: a closure in the per-read loop escapes to the callee and
// costs an allocation for every read in the round.
//
// reptile-lint:hotpath
func (b *specBuilder) extract(batch []reads.Read) {
	if b.nw == 1 {
		b.extractSerial(batch)
		return
	}
	type tally struct{ kmers, tiles int64 }
	tallies := make([]tally, b.nw)
	var wg sync.WaitGroup
	for w := 0; w < b.nw; w++ {
		lo, hi := len(batch)*w/b.nw, len(batch)*(w+1)/b.nw
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			kT, tT := b.workK[w], b.workT[w]
			tl := &tallies[w]
			addKmer := func(_ int, id kmer.ID) {
				tl.kmers++
				kT[b.shardOf(id)].Add(id, 1)
			}
			addTile := func(_ int, id kmer.ID) {
				tl.tiles++
				tT[b.shardOf(id)].Add(id, 1)
			}
			for i := lo; i < hi; i++ {
				b.spec.EachKmer(batch[i].Base, addKmer)
				b.spec.EachTileStep(batch[i].Base, 1, addTile)
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for w := range tallies {
		b.ctx.st.KmersExtracted += tallies[w].kmers
		b.ctx.st.TilesExtracted += tallies[w].tiles
	}
}

// extractSerial is the single-worker fast path: with no sibling to race,
// each id routes by owner straight into the cumulative owned shard or the
// round table — one map insert per occurrence instead of the parallel
// path's work-table insert plus fold re-insert (the double map handling
// that dominated the serial profile). Retention accumulates per occurrence
// here instead of per round-entry in foldShard; the sums are identical.
// The extraction callbacks are hoisted out of the per-read loop, as in the
// parallel path.
//
// reptile-lint:hotpath
func (b *specBuilder) extractSerial(batch []reads.Read) {
	rank, np := b.ctx.rank, b.ctx.np
	var kmers, tiles int64
	addKmer := func(_ int, id kmer.ID) {
		kmers++
		s := b.shardOf(id)
		if kmer.Owner(id, np) == rank {
			b.ownK[s].Add(id, 1)
		} else {
			b.roundK[s].Add(id, 1)
			if b.retK != nil {
				b.retK[s].Add(id, 1)
			}
		}
	}
	addTile := func(_ int, id kmer.ID) {
		tiles++
		s := b.shardOf(id)
		if kmer.Owner(id, np) == rank {
			b.ownT[s].Add(id, 1)
		} else {
			b.roundT[s].Add(id, 1)
			if b.retT != nil {
				b.retT[s].Add(id, 1)
			}
		}
	}
	for i := range batch {
		b.spec.EachKmer(batch[i].Base, addKmer)
		b.spec.EachTileStep(batch[i].Base, 1, addTile)
	}
	b.ctx.st.KmersExtracted += kmers
	b.ctx.st.TilesExtracted += tiles
}

// fold merges the workers' private tables into the cumulative owned shards
// and the round's non-owned tables, one goroutine per shard. The serial
// fast path already routed everything at extraction, so there is nothing
// to fold.
func (b *specBuilder) fold() {
	if b.nw == 1 {
		return
	}
	var wg sync.WaitGroup
	for s := 0; s < b.nw; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			b.foldShard(s)
		}(s)
	}
	wg.Wait()
}

// foldShard routes shard s of every worker table by owner rank: owned
// entries accumulate in the cumulative shard, the rest land in the round
// table (and the retained shard when retention is on). The worker tables
// are cleared, keeping their capacity for the next round. The routing
// callback is hoisted above the per-worker loop so it is allocated once per
// fold, not once per worker table.
//
// reptile-lint:hotpath
func (b *specBuilder) foldShard(s int) {
	rank, np := b.ctx.rank, b.ctx.np
	foldOne := func(own, round, ret *spectrum.HashStore, work func(w int) *spectrum.HashStore) {
		route := func(e spectrum.Entry) bool {
			if kmer.Owner(e.ID, np) == rank {
				own.Add(e.ID, e.Count)
			} else {
				round.Add(e.ID, e.Count)
			}
			return true
		}
		for w := 0; w < b.nw; w++ {
			t := work(w)
			t.Each(route)
			t.Clear()
		}
		if ret != nil {
			round.Each(func(e spectrum.Entry) bool { ret.Add(e.ID, e.Count); return true })
		}
	}
	var retK, retT *spectrum.HashStore
	if b.retK != nil {
		retK, retT = b.retK[s], b.retT[s]
	}
	foldOne(b.ownK[s], b.roundK[s], retK, func(w int) *spectrum.HashStore { return b.workK[w][s] })
	foldOne(b.ownT[s], b.roundT[s], retT, func(w int) *spectrum.HashStore { return b.workT[w][s] })
}

// observeRound records the reads-table peaks (round + retained entries, the
// batch-reads memory bound of Section III-B) and the memory high-water mark.
// Must run after fold and before encode, while the round tables are full.
func (b *specBuilder) observeRound() {
	sum := func(ss []*spectrum.HashStore) int64 {
		var n int64
		for _, s := range ss {
			n += int64(s.Len())
		}
		return n
	}
	var retK, retT int64
	if b.retK != nil {
		retK, retT = sum(b.retK), sum(b.retT)
	}
	if v := sum(b.roundK) + retK; b.ctx.st.ReadsKmers < v {
		b.ctx.st.ReadsKmers = v
	}
	if v := sum(b.roundT) + retT; b.ctx.st.ReadsTiles < v {
		b.ctx.st.ReadsTiles = v
	}
	b.ctx.observeMem()
}

// encode serializes the round's non-owned entries per destination rank into
// buffer set (one of three reused slab sets, see encK) and clears the round
// tables. Entries travel in sorted ID order, so the wire bytes are
// deterministic regardless of worker count.
func (b *specBuilder) encode(set int) (bufsK, bufsT [][]byte) {
	bufsK = b.encodeRound(b.roundK, b.encK[set])
	bufsT = b.encodeRound(b.roundT, b.encT[set])
	return bufsK, bufsT
}

// encodeRound serializes every shard's entries into the per-destination
// wire slabs, reusing the sort scratch and the slab capacity across rounds.
// Entries travel delta-compressed (appendSpecEntry): each slab is a run of
// zigzag-varint id deltas plus varint counts rather than fixed 12-byte
// records — round counts are overwhelmingly small and sorted shard segments
// keep deltas short, so typical slabs shrink well below 8 bytes per entry.
//
// reptile-lint:hotpath
func (b *specBuilder) encodeRound(round []*spectrum.HashStore, enc [][]byte) [][]byte {
	for r := range enc {
		enc[r] = enc[r][:0]
	}
	np := b.ctx.np
	prev := b.encPrev
	for r := range prev {
		prev[r] = 0
	}
	var entries int64
	for s := range round {
		b.entryScratch = round[s].EntriesInto(b.entryScratch[:0])
		for i := range b.entryScratch {
			e := &b.entryScratch[i]
			o := kmer.Owner(e.ID, np)
			enc[o], prev[o] = appendSpecEntry(enc[o], prev[o], e.ID, e.Count)
		}
		entries += int64(len(b.entryScratch))
		round[s].Clear()
	}
	for r := range enc {
		if r != b.ctx.rank {
			b.ctx.st.ExchangeBytes += int64(len(enc[r]))
			b.ctx.st.SpecBytesSent += int64(len(enc[r]))
		}
	}
	// The round tables hold only non-owned ids, so every encoded entry is
	// outbound; the self slab is always empty.
	b.ctx.st.SpecEntriesSent += entries
	return enc
}

// exchangeJob is one in-flight background Alltoallv pair. The goroutine
// touches only the Comm and the job's own fields; closing done is the
// happens-before edge publishing the results (and the Comm's tag state) back
// to the main goroutine, preserving the one-collective-at-a-time discipline
// (see collective.Comm).
type exchangeJob struct {
	done       chan struct{}
	gotK, gotT [][]byte
	err        error
}

// startExchange launches the round's k-mer and tile all-to-alls in the
// background. Exactly one job may be in flight; the caller must join it
// before starting another collective of any kind.
func (b *specBuilder) startExchange(bufsK, bufsT [][]byte) *exchangeJob {
	j := &exchangeJob{done: make(chan struct{})}
	comm := b.ctx.comm
	go func() {
		defer close(j.done)
		j.gotK, j.err = comm.Alltoallv(bufsK)
		if j.err != nil {
			return
		}
		j.gotT, j.err = comm.Alltoallv(bufsT)
	}()
	return j
}

// join waits for an exchange and merges the received entries into the owned
// shards (Step III's count merge at the owners).
func (b *specBuilder) join(j *exchangeJob) error {
	<-j.done
	if j.err != nil {
		return j.err
	}
	if err := b.merge(j.gotK, b.ownK); err != nil {
		return err
	}
	return b.merge(j.gotT, b.ownT)
}

func (b *specBuilder) merge(got [][]byte, own []*spectrum.HashStore) error {
	rank, np := b.ctx.rank, b.ctx.np
	for r, buf := range got {
		if r == rank || len(buf) == 0 {
			continue
		}
		addOwned := func(id kmer.ID, count uint32) error {
			if kmer.Owner(id, np) != rank {
				return &msgplane.ProtocolError{Kind: msgplane.ViolationMisroutedEntry, From: r, Want: kmer.Owner(id, np)}
			}
			own[b.shardOf(id)].Add(id, count)
			return nil
		}
		if err := decodeSpecEntries(buf, addOwned); err != nil {
			if _, ok := err.(*msgplane.ProtocolError); ok {
				return err
			}
			return fmt.Errorf("merging entries from rank %d: %w", r, err)
		}
	}
	return nil
}

// histogram sums the shard histograms of one sharded spectrum, for the
// auto-threshold allreduce.
func (b *specBuilder) histogram(shards []*spectrum.HashStore) []int64 {
	global := make([]int64, spectrum.HistogramBins)
	for _, s := range shards {
		spectrum.MergeHistograms(global, s.Histogram())
	}
	return global
}

// finish is the freeze point: prune the owned shards with the (possibly
// auto-resolved) thresholds, pack them into the immutable owned stores, and
// flatten the retained shards into one mutable table for the post-exchange
// count resolution. The builder is unregistered from the context; every
// shard map has been released.
//
// reptile-lint:build
func (b *specBuilder) finish() {
	ctx := b.ctx
	for s := 0; s < b.nw; s++ {
		b.ownK[s].Prune(ctx.opts.Config.KmerThreshold)
		b.ownT[s].Prune(ctx.opts.Config.TileThreshold)
	}
	ctx.ownKmer = spectrum.Freeze(b.ownK...)
	ctx.ownTile = spectrum.Freeze(b.ownT...)
	ctx.st.OwnedKmers = int64(ctx.ownKmer.Len())
	ctx.st.OwnedTiles = int64(ctx.ownTile.Len())
	ctx.st.OwnedMemBytes = ctx.ownKmer.MemBytes() + ctx.ownTile.MemBytes()
	if b.retK != nil {
		ctx.cacheKmer = flattenShards(b.retK)
		ctx.cacheTile = flattenShards(b.retT)
	}
	ctx.build = nil
	// The freeze-point footprint: frozen owned stores plus the flattened
	// retained tables, with every builder shard already released.
	ctx.st.MemAtFreeze = ctx.currentMem()
}

// flattenShards folds disjoint shard tables into one mutable HashStore,
// releasing each shard as it is consumed.
func flattenShards(shards []*spectrum.HashStore) *spectrum.HashStore {
	total := 0
	for _, s := range shards {
		total += s.Len()
	}
	out := spectrum.NewHash(total)
	for _, s := range shards {
		s.Each(func(e spectrum.Entry) bool { out.Set(e.ID, e.Count); return true })
		s.Release()
	}
	return out
}

// memBytes sums every live builder table, for the memory high-water mark.
func (b *specBuilder) memBytes() int64 {
	var total int64
	add := func(ss []*spectrum.HashStore) {
		for _, s := range ss {
			total += s.MemBytes()
		}
	}
	add(b.ownK)
	add(b.ownT)
	add(b.roundK)
	add(b.roundT)
	if b.retK != nil {
		add(b.retK)
		add(b.retT)
	}
	for w := range b.workK {
		add(b.workK[w])
		add(b.workT[w])
	}
	return total
}
