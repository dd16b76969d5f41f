package core

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"reptile/internal/reads"
	"reptile/internal/reptile"
	"reptile/internal/transport"
)

// Sink receives corrected reads incrementally during a streaming run.
type Sink interface {
	Write(batch []reads.Read) error
	Close() error
}

// SinkFactory builds one rank's sink.
type SinkFactory func(rank int) (Sink, error)

// CollectSink accumulates corrected reads in memory; the test/bench sink.
// Reads may be inspected without the mutex only after the run's goroutines
// are joined (RunStreaming returning is the happens-before edge).
type CollectSink struct {
	mu    sync.Mutex
	Reads []reads.Read // guarded by mu
}

// Write implements Sink.
func (s *CollectSink) Write(batch []reads.Read) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range batch {
		s.Reads = append(s.Reads, batch[i].Clone())
	}
	return nil
}

// Close implements Sink.
func (s *CollectSink) Close() error { return nil }

// RunRankStreaming is RunRank in the paper's low-memory shape: reads are
// never held whole. The source is traversed twice — once to build the
// spectra (with the batch-reads exchange after every chunk), and once more
// during correction, where each chunk is balanced, corrected, written to
// the sink, and dropped ("the short reads are again processed from the
// file... storing the reads is not a feasible option", paper Step IV).
func RunRankStreaming(e transport.Conn, src Source, opts Options, sink Sink) (*RankOutput, error) {
	defer joinProcess(1)()
	return runRankStreaming(e, src, opts, sink)
}

// runRankStreaming is RunRankStreaming for a rank whose launcher already
// counted it among the process's ranks.
func runRankStreaming(e transport.Conn, src Source, opts Options, sink Sink) (*RankOutput, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if sink == nil {
		return nil, fmt.Errorf("core: streaming run needs a sink")
	}
	if opts.Replicas >= 2 {
		return nil, fmt.Errorf("core: Replicas=2 requires the batch engine: a recovery executor re-derives a dead rank's resident reads, which streaming never holds")
	}
	if opts.WorkSteal {
		return nil, fmt.Errorf("core: WorkSteal requires the batch engine: the chunk queue is cut from resident reads")
	}
	out, err := runRankPipeline(e, opts, streamingSteps(src, sink, opts))
	// The sink is closed here, exactly once, on every exit path: an aborted
	// run must still flush buffered corrected reads and release the sink's
	// file handles, and a close failure on an otherwise clean run is a run
	// failure. The close error joins (rather than replaces) a run error so
	// errors.As still finds the run's AbortError.
	if cerr := sink.Close(); cerr != nil {
		if err == nil {
			err = cerr
		} else {
			err = errors.Join(err, cerr)
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// moreRounds aligns open-ended chunk loops across ranks: every rank reports
// whether it still has local work, and all continue until nobody does.
func (ctx *rankCtx) moreRounds(localMore bool) (bool, error) {
	v := int64(0)
	if localMore {
		v = 1
	}
	max, err := ctx.comm.AllreduceMaxInt64(v)
	if err != nil {
		return false, err
	}
	return max > 0, nil
}

// spectrumPassStreaming builds the distributed spectra chunk by chunk
// without retaining reads: batch-reads semantics are inherent here. The
// sharded extraction workers apply as in the in-memory engine, but the
// exchange is NOT pipelined: each round ends with the open-ended moreRounds
// allreduce, which must not overlap an in-flight background all-to-all on
// the same Comm, so the exchange is joined inline.
//
// reptile-lint:build
func (ctx *rankCtx) spectrumPassStreaming(src Source) error {
	if ctx.snapLoaded {
		// Run-wide snapshot hit: the build's first source traversal is
		// skipped entirely (ReadBases stays zero on a warm run).
		return nil
	}
	br, err := src.Open(ctx.rank, ctx.np, ctx.opts.Config.ChunkReads)
	if err != nil {
		return err
	}
	defer br.Close()
	// The streaming pass retains nothing (retained tables would grow with
	// the dataset, defeating the point); RetainReadKmers then only matters
	// as the CacheRemote prerequisite, with the cache budget left to the
	// caller.
	b := ctx.newSpecBuilder(false)
	exhausted := false
	for round := 0; ; round++ {
		var batch []reads.Read
		if !exhausted {
			batch, err = br.NextBatch()
			if err == io.EOF {
				exhausted = true
				err = nil
			}
			if err != nil {
				return err
			}
		}
		for i := range batch {
			ctx.st.ReadBases += int64(len(batch[i].Base))
		}
		b.extract(batch)
		b.fold()
		b.observeRound()
		// Rotating the buffer set keeps a zero-copy peer that is still
		// decoding the previous round's slab safe from this round's encode
		// (see specBuilder.encK).
		bufsK, bufsT := b.encode(round % 3)
		if err := b.join(b.startExchange(bufsK, bufsT)); err != nil {
			return err
		}
		more, err := ctx.moreRounds(!exhausted)
		if err != nil {
			return err
		}
		if !more {
			break
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

// correctStreamLoop is the streaming engine's correct-step work function,
// run by correctDriver with the rank's router live on the same endpoint:
// re-read the source, balancing and correcting one chunk at a time, and
// write each corrected chunk to the sink. The whole loop is one session —
// each balanced chunk is a resident session submission, corrected by this
// rank's executor through the same worker pool as the in-memory engine —
// so the streaming driver shares the served jobs' correction code path.
// The worker's chunk-boundary collectives coexist with the responder
// because collective tags are disjoint from service tags.
func (ctx *rankCtx) correctStreamLoop(src Source, sink Sink, disp *lookupDispatcher) (res reptile.Result, err error) {
	br, err := src.Open(ctx.rank, ctx.np, ctx.opts.Config.ChunkReads)
	if err != nil {
		return res, err
	}
	defer br.Close()
	sess, err := ctx.openSession(ctx.rank, batchTenant)
	if err != nil {
		return res, err
	}
	defer func() {
		// Close retires the session at the executor; the done announcement
		// in quiesceCorrect requires it (a rank is done only when its
		// sessions are closed). On an already-failing exit the close error
		// is secondary noise.
		if cerr := sess.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	exhausted := false
	for {
		var batch []reads.Read
		if !exhausted {
			batch, err = br.NextBatch()
			if err == io.EOF {
				exhausted = true
				err = nil
			}
			if err != nil {
				return res, err
			}
		}
		mine, err := ctx.balanceChunk(batch)
		if err != nil {
			return res, err
		}
		// balanceChunk's output is this rank's own storage, so the chunk is
		// submitted resident: corrected in place, no copy.
		pend, err := sess.submitResident(mine)
		if err != nil {
			return res, err
		}
		_, chunkRes, err := pend.Wait()
		res.Add(chunkRes)
		if err != nil {
			return res, err
		}
		ctx.st.ReadsAssigned += int64(len(mine))
		if len(mine) > 0 {
			if err := sink.Write(mine); err != nil {
				return res, err
			}
		}
		more, err := ctx.moreRounds(!exhausted)
		if err != nil {
			return res, err
		}
		if !more {
			return res, nil
		}
	}
}

// balanceChunk redistributes one chunk of reads to owner ranks (or clones
// them locally when balancing is off) and returns the reads this rank must
// correct from this round.
func (ctx *rankCtx) balanceChunk(batch []reads.Read) ([]reads.Read, error) {
	if !ctx.opts.LoadBalance {
		out := make([]reads.Read, len(batch))
		for i := range batch {
			out[i] = batch[i].Clone()
		}
		return out, nil
	}
	buckets := make([][]reads.Read, ctx.np)
	var mine []reads.Read
	for i := range batch {
		owner := batch[i].OwnerRank(ctx.np)
		if owner == ctx.rank {
			mine = append(mine, batch[i].Clone())
		} else {
			buckets[owner] = append(buckets[owner], batch[i])
			ctx.st.ReadsExchanged++
		}
	}
	bufs := make([][]byte, ctx.np)
	for r, b := range buckets {
		if r != ctx.rank && len(b) > 0 {
			bufs[r] = reads.EncodeBatch(b)
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
	// Deterministic order within the chunk. Across chunks the sink output
	// is NOT globally sorted by sequence number: balancing interleaves the
	// file order by design.
	sort.Slice(mine, func(i, j int) bool { return mine[i].Seq < mine[j].Seq })
	return mine, nil
}

// RunStreaming executes the streaming pipeline with np goroutine ranks.
func RunStreaming(src Source, np int, opts Options, sinks SinkFactory) (*Output, error) {
	return runGroup(np, opts, func(conn transport.Conn, r int) (*RankOutput, error) {
		sink, err := sinks(r)
		if err != nil {
			// A factory may hand back a partially-built sink alongside its
			// error (say, the .fa file opened but the .qual did not); close
			// it so nothing leaks.
			if sink != nil {
				if cerr := sink.Close(); cerr != nil {
					err = errors.Join(err, cerr)
				}
			}
			// The sink failed before the rank ever joined the group; closing
			// its endpoint surfaces the loss to peers as ErrPeerDown, the
			// same as a rank dying pre-run.
			conn.Close()
			return nil, err
		}
		return runRankStreaming(conn, src, opts, sink)
	})
}
