package core

import (
	"errors"
	"fmt"
	"io"
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

// sourceChunks hands one rank's source out chunk by chunk to the streaming
// engine's open-ended round loops. Once the source is exhausted every
// further round gets an empty chunk: the rank still joins each round's
// collectives until no rank has work left (moreRounds).
type sourceChunks struct {
	br        BatchReader
	exhausted bool
}

// next returns the source's next chunk, or an empty one after EOF.
func (c *sourceChunks) next() ([]reads.Read, error) {
	if c.exhausted {
		return nil, nil
	}
	batch, err := c.br.NextBatch()
	if err == io.EOF {
		c.exhausted = true
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return batch, nil
}

// streamSpectrumPhase is the streaming engine's Steps II-III: the build
// round loop fed one source chunk per round, with no read retained past its
// round — batch-reads semantics are inherent here. A rank cannot know its
// chunk count up front, so each round ends open-ended: round 0 always runs,
// and after that the rounds continue while any rank's source still had a
// chunk (moreRounds, asked between exchanges by the round loop).
//
// reptile-lint:build
func (ctx *rankCtx) streamSpectrumPhase(src Source) error {
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
	chunks := &sourceChunks{br: br}
	supply := func(int) ([]reads.Read, error) {
		batch, err := chunks.next()
		for i := range batch {
			ctx.st.ReadBases += int64(len(batch[i].Base))
		}
		return batch, err
	}
	another := func(round int) (bool, error) {
		if round == 0 {
			return true, nil
		}
		return ctx.moreRounds(!chunks.exhausted)
	}
	// The streaming pass retains nothing (retained tables would grow with
	// the dataset, defeating the point); RetainReadKmers then only matters
	// as the CacheRemote prerequisite, with the cache budget left to the
	// caller.
	return ctx.buildSpectrum(false, supply, another)
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
	chunks := &sourceChunks{br: br}
	for {
		batch, err := chunks.next()
		if err != nil {
			return res, err
		}
		// A source batch aliases the reader's storage, so balance clones the
		// reads it keeps; its output is this rank's own storage, and the
		// chunk is submitted resident: corrected in place, no copy. Order is
		// deterministic within the chunk only: across chunks the sink
		// output is not globally sorted by sequence number, since balancing
		// interleaves the file order by design.
		mine, err := ctx.balance(batch, true)
		if err != nil {
			return res, err
		}
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
		more, err := ctx.moreRounds(!chunks.exhausted)
		if err != nil {
			return res, err
		}
		if !more {
			return res, nil
		}
	}
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
