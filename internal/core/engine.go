package core

import (
	"fmt"
	"io"
	"sort"

	"reptile/internal/collective"
	"reptile/internal/kmer"
	"reptile/internal/msgplane"
	"reptile/internal/reads"
	"reptile/internal/reptile"
	"reptile/internal/spectrum"
	"reptile/internal/stats"
	"reptile/internal/transport"
)

// RankOutput is what one rank produces.
type RankOutput struct {
	Corrected []reads.Read
	Stats     stats.Rank
	Result    reptile.Result
}

// rankCtx carries one rank's state through the pipeline phases. The
// endpoint is held as transport.Conn so the whole pipeline — collectives,
// responder, remote lookups — runs unchanged under the Chaos wrapper.
type rankCtx struct {
	e    transport.Conn
	comm *collective.Comm
	opts Options
	rank int
	np   int
	st   stats.Rank

	myReads []reads.Read

	// build is the sharded spectrum builder, live only during the spectrum
	// phase; specBuilder.finish replaces it with the frozen stores below.
	build *specBuilder

	// Owned spectra, immutable from the freeze point (end of the spectrum
	// phase) onward.
	// frozen: packed by specBuilder.finish
	ownKmer, ownTile *spectrum.PackedStore
	// The oracle's read-side view of the retained reads tables (global
	// counts; nil unless RetainReadKmers): a PackedStore normally, the
	// mutable cache tables under CacheRemote.
	readsKmer, readsTile spectrum.Lookuper
	// Mutable retained tables: built by the spectrum phase, resolved to
	// global counts in the post-exchange phase, then frozen into
	// readsKmer/readsTile — except under CacheRemote, which keeps them as
	// the correction-time write side (serialized by the pool's cacheMu).
	cacheKmer, cacheTile *spectrum.HashStore
	replKmer, replTile   spectrum.Lookuper // full replicas (heuristic)
	// Partial-replication copies, packed at the end of the post-exchange
	// phase.
	// frozen: packed by groupReplicate
	groupKmer, groupTile *spectrum.PackedStore

	// Snapshot-cache state (zero unless Options.Snapshot is set): the
	// resolved per-rank file path, and whether the run-wide cache hit let
	// this rank adopt its frozen spectra instead of building them.
	snapPath   string
	snapLoaded bool

	// plane is the rank-wide prefetch accumulator shared by every correction
	// worker (nil unless lookup batching is on); created by correctDriver.
	plane *prefetchPlane

	// res accumulates the correct step's totals for the pipeline epilogue.
	res reptile.Result

	// src is the batch engine's input source, retained past the read phase
	// so a recovery executor can re-derive a dead rank's read assignment.
	src Source
	// Recovery state (nil unless Options.Replicas >= 2): replica shards,
	// the shard holder map, and the peer-down verdict machinery.
	rec *recoveryState
	// Work-stealing chunk queue (nil unless Options.WorkSteal).
	steal *stealSched
	// recCaller carries the recovery/steal request-response traffic
	// (steal requests, replica pushes); nil when neither mode is on.
	recCaller *msgplane.Caller

	// The session layer, armed together with the correct-phase router:
	// sessCaller matches this rank's session requests (open/chunk/close) to
	// their answers, sessions is the executor admitting and correcting
	// sessions opened at this rank. Both live from armCorrect to the
	// quiesce/failure teardown.
	sessCaller *msgplane.Caller
	sessions   *sessionExec
}

// RunRank executes the full pipeline for one rank. Every rank of the group
// must call it concurrently (collectives synchronize them); it works over
// any transport, so one process per rank over TCP behaves identically to
// goroutine ranks.
//
// On failure — own phase error, a lost peer, a corrupt frame, or a peer's
// abort broadcast — RunRank returns an AbortError naming the originating
// rank, its phase, and the root cause; the failing rank broadcasts the
// abort so every peer unblocks promptly instead of hanging in a collective
// or the responder loop.
func RunRank(e transport.Conn, src Source, opts Options) (*RankOutput, error) {
	defer joinProcess(1)()
	return runRankPipeline(e, opts, batchSteps(src, opts))
}

// observeFaults records the chaos-schedule fault count when the endpoint is
// a fault-injecting wrapper.
func (ctx *rankCtx) observeFaults() {
	if f, ok := ctx.e.(interface{ FaultsInjected() int64 }); ok {
		ctx.st.FaultsInjected = f.FaultsInjected()
	}
}

// readPhase is Step I: pull this rank's shard from the source. Reads are
// cloned so correction never aliases caller-owned storage.
func (ctx *rankCtx) readPhase(src Source) error {
	ctx.src = src
	br, err := src.Open(ctx.rank, ctx.np, ctx.opts.Config.ChunkReads)
	if err != nil {
		return err
	}
	defer br.Close()
	for {
		batch, err := br.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for i := range batch {
			ctx.st.ReadBases += int64(len(batch[i].Base))
			ctx.myReads = append(ctx.myReads, batch[i].Clone())
		}
	}
	return nil
}

// balancePhase runs the static load-balancing exchange over the rank's
// whole resident read set. The reads are the rank's own clones, so the ones
// it keeps are not copied again.
func (ctx *rankCtx) balancePhase() error {
	mine, err := ctx.balance(ctx.myReads, false)
	if err != nil {
		return err
	}
	ctx.myReads = mine
	ctx.st.ReadsAssigned = int64(len(mine))
	return nil
}

// balance is the static load-balancing exchange of Section III-A: reads are
// bucketed by content hash and shipped to their owner ranks with one
// all-to-all, "randomizing" the file order so error-dense stretches spread
// across all ranks. It returns the reads this rank must correct, in
// sequence order regardless of arrival order. When batch aliases storage
// the caller reuses (a source batch), the reads kept here are cloned;
// shipped reads are encoded straight from batch and never cloned. With
// balancing off every read stays put.
func (ctx *rankCtx) balance(batch []reads.Read, aliased bool) ([]reads.Read, error) {
	keep := func(r *reads.Read) reads.Read {
		if aliased {
			return r.Clone()
		}
		return *r
	}
	if !ctx.opts.LoadBalance {
		if !aliased {
			return batch, nil
		}
		out := make([]reads.Read, len(batch))
		for i := range batch {
			out[i] = keep(&batch[i])
		}
		return out, nil
	}
	buckets := make([][]reads.Read, ctx.np)
	var mine []reads.Read
	for i := range batch {
		owner := batch[i].OwnerRank(ctx.np)
		if owner == ctx.rank {
			mine = append(mine, keep(&batch[i]))
		} else {
			buckets[owner] = append(buckets[owner], batch[i])
			ctx.st.ReadsExchanged++
		}
	}
	bufs := make([][]byte, ctx.np)
	for r, b := range buckets {
		if r != ctx.rank {
			bufs[r] = reads.EncodeBatch(b) // nil for an empty bucket
			ctx.st.ExchangeBytes += int64(len(bufs[r]))
		}
	}
	got, err := ctx.comm.Alltoallv(bufs)
	if err != nil {
		return nil, err
	}
	for r, buf := range got {
		if r == ctx.rank || len(buf) == 0 {
			continue
		}
		in, err := reads.DecodeBatch(buf)
		if err != nil {
			return nil, fmt.Errorf("decoding reads from rank %d: %w", r, err)
		}
		mine = append(mine, in...)
	}
	sort.Slice(mine, func(i, j int) bool { return mine[i].Seq < mine[j].Seq })
	return mine, nil
}

// spectrumPhase is the in-memory engine's Steps II-III: the balanced
// resident reads run through the build round loop in chunks of ChunkReads
// under batch-reads mode (paper Section III-B), otherwise as a single
// round. Rank chunk counts may differ and everyone must join every
// collective, so the round count is agreed once, up front (the paper's
// MPI_Reduce-MAX step).
//
// reptile-lint:build
func (ctx *rankCtx) spectrumPhase() error {
	if ctx.snapLoaded {
		// The snapshot phase already adopted this run's frozen spectra —
		// run-wide, so no peer is inside the build's collectives either.
		return nil
	}
	chunk := len(ctx.myReads)
	if ctx.opts.Heuristics.BatchReads {
		chunk = ctx.opts.Config.ChunkReads
	}
	chunk = max(chunk, 1)
	rounds := int64((len(ctx.myReads) + chunk - 1) / chunk)
	maxRounds, err := ctx.comm.AllreduceMaxInt64(rounds)
	if err != nil {
		return err
	}
	supply := func(round int) ([]reads.Read, error) {
		lo := min(round*chunk, len(ctx.myReads))
		hi := min(lo+chunk, len(ctx.myReads))
		return ctx.myReads[lo:hi], nil
	}
	another := func(round int) (bool, error) { return int64(round) < maxRounds, nil }
	return ctx.buildSpectrum(ctx.opts.Heuristics.RetainReadKmers, supply, another)
}

// buildSpectrum is the one round loop behind both engines' spectrum
// construction. Each round, supply hands over the round's reads; the
// sharded worker pool extracts and folds them, and their non-owned counts
// ship to the owners. The rounds are pipelined: round r's extraction, fold
// and encode overlap round r-1's background all-to-all pair (triple-
// buffered wire slabs keep them independent). another(r) decides whether
// round r runs, identically on every rank: it is asked for round 0 before
// the loop, and for round r+1 after joining exchange r-1 and before
// starting exchange r — so a decision that is itself a collective never
// overlaps the background all-to-all on the same Comm. The freeze point at
// the end resolves the thresholds and packs the pruned owned shards into
// immutable PackedStores.
//
// reptile-lint:build
func (ctx *rankCtx) buildSpectrum(retain bool, supply func(round int) ([]reads.Read, error), another func(round int) (bool, error)) error {
	b := ctx.newSpecBuilder(retain)
	more, err := another(0)
	if err != nil {
		return err
	}
	var inflight *exchangeJob
	for round := 0; more; round++ {
		batch, err := supply(round)
		if err != nil {
			return err
		}
		b.extract(batch)
		b.fold()
		b.observeRound()
		bufsK, bufsT := b.encode(round % 3)
		if inflight != nil {
			if err := b.join(inflight); err != nil {
				return err
			}
		}
		if more, err = another(round + 1); err != nil {
			return err
		}
		inflight = b.startExchange(bufsK, bufsT)
	}
	if inflight != nil {
		if err := b.join(inflight); err != nil {
			return err
		}
	}
	if err := ctx.resolveThresholds(); err != nil {
		return err
	}
	b.finish()
	if ctx.opts.Snapshot != nil {
		return ctx.saveSnapshot()
	}
	return nil
}

// postExchangePhase runs the optional post-construction exchanges: global
// count resolution of retained reads tables, full replication, and partial
// group replication. Every rank participates in the same collectives in the
// same order even when a mode is off (with empty buffers), keeping the
// collective schedule aligned. It is also the second freeze point: resolved
// reads tables and group copies are packed here, unless CacheRemote needs
// the reads tables to stay writable through correction.
//
// reptile-lint:build
func (ctx *rankCtx) postExchangePhase() error {
	h := ctx.opts.Heuristics
	if h.RetainReadKmers {
		if ctx.cacheKmer == nil {
			// The streaming pass retains nothing; CacheRemote still needs
			// mutable cache space.
			ctx.cacheKmer = spectrum.NewHash(0)
			ctx.cacheTile = spectrum.NewHash(0)
		}
		if err := ctx.resolveReadsTable(ctx.cacheKmer, ctx.ownKmer); err != nil {
			return err
		}
		if err := ctx.resolveReadsTable(ctx.cacheTile, ctx.ownTile); err != nil {
			return err
		}
		if h.CacheRemote {
			// Correction writes resolved remote lookups back into the
			// tables, so they stay in their mutable form.
			ctx.readsKmer, ctx.readsTile = ctx.cacheKmer, ctx.cacheTile
		} else {
			ctx.readsKmer = spectrum.Freeze(ctx.cacheKmer)
			ctx.readsTile = spectrum.Freeze(ctx.cacheTile)
			ctx.cacheKmer, ctx.cacheTile = nil, nil
		}
	}
	if h.ReplicateKmers {
		repl, err := ctx.replicate(ctx.ownKmer)
		if err != nil {
			return err
		}
		ctx.replKmer = repl
	}
	if h.ReplicateTiles {
		repl, err := ctx.replicate(ctx.ownTile)
		if err != nil {
			return err
		}
		ctx.replTile = repl
	}
	if g := h.PartialReplicationGroup; g > 1 {
		gk, err := ctx.groupReplicate(ctx.ownKmer, g)
		if err != nil {
			return err
		}
		gt, err := ctx.groupReplicate(ctx.ownTile, g)
		if err != nil {
			return err
		}
		ctx.groupKmer, ctx.groupTile = gk, gt
	}
	if ctx.opts.Replicas >= 2 && ctx.np >= 2 {
		// The R=2 ring placement is the last act of the freeze point: from
		// here a single rank loss during correction is survivable.
		return ctx.ringReplicate()
	}
	return nil
}

// resolveReadsTable swaps the local counts in a retained reads table for
// global counts fetched from the owners in bulk ("Read K-mers/Tiles"):
// one all-to-all carries the IDs, a second carries the counts back, and a
// zero count records a definitive absence.
//
// reptile-lint:build
func (ctx *rankCtx) resolveReadsTable(readsTable *spectrum.HashStore, own spectrum.Lookuper) error {
	ids := make([][]kmer.ID, ctx.np)
	readsTable.Each(func(e spectrum.Entry) bool {
		o := kmer.Owner(e.ID, ctx.np)
		ids[o] = append(ids[o], e.ID)
		return true
	})
	bufs := make([][]byte, ctx.np)
	for r, list := range ids {
		if r == ctx.rank || len(list) == 0 {
			continue
		}
		buf := make([]byte, 0, len(list)*12)
		entries := make([]spectrum.Entry, len(list))
		for i, id := range list {
			entries[i] = spectrum.Entry{ID: id}
		}
		bufs[r] = spectrum.EncodeEntries(buf, entries)
		ctx.st.ExchangeBytes += int64(len(bufs[r]))
	}
	got, err := ctx.comm.Alltoallv(bufs)
	if err != nil {
		return err
	}
	// Answer each requester in its own order.
	resp := make([][]byte, ctx.np)
	for r, buf := range got {
		if r == ctx.rank || len(buf) == 0 {
			continue
		}
		entries, err := spectrum.DecodeEntries(buf)
		if err != nil {
			return err
		}
		for i := range entries {
			cnt, _ := own.Count(entries[i].ID)
			entries[i].Count = cnt // 0 = pruned/absent
		}
		resp[r] = spectrum.EncodeEntries(nil, entries)
		ctx.st.ExchangeBytes += int64(len(resp[r]))
	}
	answers, err := ctx.comm.Alltoallv(resp)
	if err != nil {
		return err
	}
	for r, buf := range answers {
		if r == ctx.rank || len(buf) == 0 {
			continue
		}
		entries, err := spectrum.DecodeEntries(buf)
		if err != nil {
			return err
		}
		for _, e := range entries {
			readsTable.Set(e.ID, e.Count)
		}
	}
	return nil
}

// replicate allgathers the owned spectrum onto every rank and lays it out
// per the configured replicated layout (packed by default; sorted or
// cache-aware arrays reproduce the prior parallelizations' storage). Every
// layout is immutable, matching the replicas' read-only role in Step IV.
//
// reptile-lint:build
func (ctx *rankCtx) replicate(own *spectrum.PackedStore) (spectrum.Lookuper, error) {
	buf := spectrum.EncodeEntries(nil, own.Entries())
	ctx.st.ExchangeBytes += int64(len(buf)) * int64(ctx.np-1)
	all, err := ctx.comm.Allgatherv(buf)
	if err != nil {
		return nil, err
	}
	repl := spectrum.NewHash(own.Len() * ctx.np)
	for _, b := range all {
		entries, err := spectrum.DecodeEntries(b)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			repl.Set(e.ID, e.Count)
		}
	}
	switch ctx.opts.Heuristics.ReplicatedLayout {
	case LayoutSorted:
		s := spectrum.NewSorted(repl.Entries())
		repl.Release()
		return s, nil
	case LayoutCacheAware:
		c := spectrum.NewCacheAware(repl.Entries())
		repl.Release()
		return c, nil
	}
	return spectrum.Freeze(repl), nil
}

// groupReplicate exchanges owned spectra within replication groups of g
// consecutive ranks (the paper's proposed partial-replication extension)
// and freezes the union.
//
// reptile-lint:build
func (ctx *rankCtx) groupReplicate(own *spectrum.PackedStore, g int) (*spectrum.PackedStore, error) {
	buf := spectrum.EncodeEntries(nil, own.Entries())
	bufs := make([][]byte, ctx.np)
	myGroup := ctx.rank / g
	for r := 0; r < ctx.np; r++ {
		if r != ctx.rank && r/g == myGroup {
			bufs[r] = buf
			ctx.st.ExchangeBytes += int64(len(buf))
		}
	}
	got, err := ctx.comm.Alltoallv(bufs)
	if err != nil {
		return nil, err
	}
	group := spectrum.NewHash(own.Len() * g)
	own.Each(func(e spectrum.Entry) bool { group.Set(e.ID, e.Count); return true })
	for r, b := range got {
		if r == ctx.rank || len(b) == 0 {
			continue
		}
		entries, err := spectrum.DecodeEntries(b)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			group.Set(e.ID, e.Count)
		}
	}
	return spectrum.Freeze(group), nil
}

// currentMem sums the live table footprint. Reads themselves are excluded:
// the paper streams them from the file precisely to keep them out of the
// 512 MB budget, and our in-memory copy is an artifact of returning
// corrected reads to the caller.
func (ctx *rankCtx) currentMem() int64 {
	var total int64
	if ctx.build != nil {
		total += ctx.build.memBytes()
	}
	for _, s := range []*spectrum.PackedStore{
		ctx.ownKmer, ctx.ownTile, ctx.groupKmer, ctx.groupTile,
	} {
		if s != nil {
			total += s.MemBytes()
		}
	}
	// Under CacheRemote readsKmer/readsTile alias the cache tables; count
	// each store once.
	if ctx.cacheKmer != nil {
		total += ctx.cacheKmer.MemBytes() + ctx.cacheTile.MemBytes()
	} else {
		for _, s := range []spectrum.Lookuper{ctx.readsKmer, ctx.readsTile} {
			if s != nil {
				total += s.MemBytes()
			}
		}
	}
	for _, s := range []spectrum.Lookuper{ctx.replKmer, ctx.replTile} {
		if s != nil {
			total += s.MemBytes()
		}
	}
	if ctx.rec != nil {
		total += ctx.rec.replicaMemBytes()
	}
	return total
}

// observeMem records the table-footprint high-water mark.
func (ctx *rankCtx) observeMem() {
	ctx.st.ObserveMem(ctx.currentMem())
}
