// Package core implements the paper's contribution: a distributed-memory
// Reptile in which both the k-mer and the tile spectrum are partitioned
// across ranks by owner hashing, spectrum construction runs through
// all-to-all count merges, and error correction resolves missing spectrum
// entries by messaging the owning rank's communication thread.
//
// The engine follows the paper's Section III step for step:
//
//	Step I    each rank reads its shard of the input (byte-offset
//	          partitioning via internal/fastaio, or a proportional slice of
//	          an in-memory dataset), optionally redistributing reads to
//	          their owner ranks for static load balance (Section III-A).
//	Step II   per-rank spectrum construction: Heuristics.Workers extraction
//	          goroutines shard k-mer and tile tallies by hash(id), split by
//	          owner rank (see specBuilder in build.go).
//	Step III  all-to-all exchange of non-owned entries, count merge at the
//	          owners, threshold pruning, and a freeze into immutable packed
//	          stores. The batch-reads heuristic repeats the exchange per
//	          chunk to bound the reads tables, pipelining round r's build
//	          with round r-1's exchange.
//	Step IV   correction with two goroutines per rank — a worker running
//	          the Reptile corrector and a responder servicing remote k-mer/
//	          tile count requests — plus a done/stop termination protocol.
//
// Every heuristic of Section III-B is implemented and selectable.
package core

import (
	"fmt"

	"reptile/internal/msgplane"
	"reptile/internal/reptile"
	"reptile/internal/transport"
)

// Heuristics selects the paper's optional execution modes (Section III-B).
// The zero value is the paper's base mode.
type Heuristics struct {
	// Universal packs the request kind into the message payload so the
	// responder accepts any message without probing tags first.
	Universal bool

	// RetainReadKmers keeps the readsKmer/readsTile tables after spectrum
	// construction and resolves their entries' *global* counts with one
	// extra all-to-all, so correction can answer from them before
	// messaging ("Read K-mers/Tiles").
	RetainReadKmers bool

	// ReplicateKmers/ReplicateTiles allgather the respective spectrum onto
	// every rank, eliminating its request traffic at a memory cost
	// ("Allgather k-mers/tiles/both").
	ReplicateKmers bool
	ReplicateTiles bool

	// CacheRemote adds answers from remote lookups to the reads tables so
	// repeated misses are served locally ("Add remote k-mer/tile lookups").
	// It requires RetainReadKmers, as in the paper.
	CacheRemote bool

	// BatchReads runs the Step III exchange after every chunk of reads and
	// clears the reads tables, bounding their size ("Batch Reads Table").
	BatchReads bool

	// PartialReplicationGroup is the paper's proposed future-work mode:
	// every rank additionally holds the owned spectra of its replication
	// group (G consecutive ranks), so a miss tries the group copy before
	// messaging. 0 or 1 disables it.
	PartialReplicationGroup int

	// LookupBatch enables the batched remote-lookup pipeline: remote misses
	// are coalesced per owner rank into tagBatchReq frames of up to this
	// many ids (software message aggregation, as in diBELLA). 0 keeps the
	// paper's one-request-per-id protocol. The corrected output is
	// byte-identical either way; only the message pattern changes.
	LookupBatch int

	// LookupWindow bounds how many unanswered batch frames one rank may
	// hold in flight at a single peer — the pipeline depth. 0 means the
	// default window when batching is on; ignored otherwise.
	LookupWindow int

	// Workers sizes the per-rank thread pools (the paper's "worker
	// threads", plural): the correction worker pool and, equally, the
	// spectrum-build extraction goroutines and their hash(id)%Workers table
	// shards. 0 or 1 runs the classic single worker. More than one requires
	// LookupBatch: the correction workers share the responder through the
	// batch dispatcher's request-id routing, which the legacy tagResp
	// protocol cannot provide. The corrected output is byte-identical for
	// every worker count.
	Workers int

	// ReplicatedLayout selects the in-memory layout of replicated spectra.
	// The prior parallelizations the paper contrasts against replicated the
	// spectrum as sorted arrays (Shah et al., binary search) or a
	// cache-aware (B+1)-ary layout (Jammula et al.); this implementation's
	// default is the paper's hash tables. Only meaningful together with
	// ReplicateKmers/ReplicateTiles.
	ReplicatedLayout Layout
}

// Layout names a replicated-spectrum storage layout.
type Layout int

// Replicated-spectrum layouts.
const (
	LayoutHash       Layout = iota // this paper: hash tables
	LayoutSorted                   // Shah et al. 2012: sorted array + binary search
	LayoutCacheAware               // Jammula et al. 2015: (B+1)-ary cache-aware tree
)

// String names the layout.
func (l Layout) String() string {
	switch l {
	case LayoutHash:
		return "hash"
	case LayoutSorted:
		return "sorted"
	case LayoutCacheAware:
		return "cacheaware"
	}
	return "unknown"
}

// Validate checks heuristic combinations.
func (h Heuristics) Validate() error {
	if h.CacheRemote && !h.RetainReadKmers {
		return fmt.Errorf("core: CacheRemote requires RetainReadKmers (the cache lives in the reads tables)")
	}
	if h.PartialReplicationGroup < 0 {
		return fmt.Errorf("core: negative partial replication group")
	}
	if h.ReplicatedLayout < LayoutHash || h.ReplicatedLayout > LayoutCacheAware {
		return fmt.Errorf("core: unknown replicated layout %d", h.ReplicatedLayout)
	}
	if h.ReplicatedLayout != LayoutHash && !h.ReplicateKmers && !h.ReplicateTiles {
		return fmt.Errorf("core: ReplicatedLayout=%s requires ReplicateKmers or ReplicateTiles", h.ReplicatedLayout)
	}
	if h.LookupBatch < 0 {
		return fmt.Errorf("core: negative lookup batch")
	}
	if h.LookupBatch > maxBatchEntries {
		return fmt.Errorf("core: lookup batch %d exceeds the wire maximum %d", h.LookupBatch, maxBatchEntries)
	}
	if h.LookupWindow < 0 {
		return fmt.Errorf("core: negative lookup window")
	}
	if h.Workers < 0 {
		return fmt.Errorf("core: negative worker count")
	}
	if h.Workers > 1 && h.LookupBatch == 0 {
		return fmt.Errorf("core: Workers=%d requires LookupBatch: the legacy one-at-a-time response protocol cannot route responses to more than one worker", h.Workers)
	}
	return nil
}

// Options configures one engine run.
type Options struct {
	// Config are the Reptile correction parameters.
	Config reptile.Config
	// Heuristics are the Section III-B execution modes.
	Heuristics Heuristics
	// LoadBalance enables the static sequence-redistribution scheme of
	// Section III-A.
	LoadBalance bool
	// AutoThresholds derives the k-mer/tile solidity thresholds from the
	// global count histograms (valley between the error and coverage
	// peaks) instead of Config's fixed values. The histograms are
	// allreduced, so every rank picks identical thresholds; Config's values
	// remain the fallback when a histogram has no usable valley.
	AutoThresholds bool
	// Chaos, when non-nil, wraps every rank's endpoint in the transport's
	// fault-injection layer executing this schedule. Benign schedules
	// (delay/jitter/slow rank) must not change the corrected output; fatal
	// schedules (crash/corrupt/drop) make every rank return an AbortError
	// instead of hanging. Nil for production runs. With Replicas >= 2 a
	// single-rank crash during the correct phase is survived instead.
	Chaos *transport.Plan
	// Replicas selects the spectrum redundancy degree. 0 or 1 keeps the
	// paper's single-copy owner placement. 2 adds the ring placement: at
	// the freeze point every rank ships its frozen owned spectra (exact
	// slab images) to its ring successor, and from then on a single rank
	// loss during correction is survived — lookups fail over to the
	// surviving copy, the lost shard is re-replicated to a new successor,
	// and the dead rank's reads are corrected by the shard's holder, so the
	// run completes with byte-identical output. Requires LookupBatch (the
	// failover retry rides the request-id protocol) and the batch engine.
	Replicas int
	// Snapshot, when non-nil, layers the frozen-spectrum snapshot cache
	// over the build phases (DESIGN.md §16): each rank probes for a
	// snapshot of its owned spectra before building; on a run-wide hit the
	// spectrum build is replaced by the slab load, on any miss every rank
	// builds and writes its snapshot back atomically. Incompatible with
	// AutoThresholds and RetainReadKmers — see Validate.
	Snapshot *SnapshotOptions
	// Serve tunes the session layer — the admission cap and flow-control
	// window every correction session gets, and the front door address the
	// reptile-serve daemon listens on. Nil uses the defaults; the session
	// layer itself is always armed (the batch drivers run through it as a
	// one-shot session).
	Serve *ServeOptions
	// WorkSteal lets a rank that drains its own read queue early steal
	// correction chunks from still-busy peers over the steal-request/grant
	// protocol. Stolen chunks are corrected against the same static spectra
	// and written back in place by chunk id, so the corrected output is
	// byte-identical to a run without stealing. Requires LookupBatch for
	// the same reason as Workers > 1, and the batch engine.
	WorkSteal bool
}

// SnapshotOptions configures the spectrum-snapshot layer: where this run's
// per-rank snapshot files live and how the cache key identifies the input.
type SnapshotOptions struct {
	// Dir is the content-hash cache directory: each rank's file is named
	// by hash(InputDigest, k, overlap, thresholds, np, format version), so
	// any input or parameter change lands on a fresh entry and stale
	// snapshots are simply never consulted.
	Dir string
	// Path, when set, bypasses the content-hash cache and names the
	// per-rank files directly as "<Path>.r<rank>.rsnap" — the explicit
	// form behind reptile-correct -snapshot and reptile-spectrum build.
	// Exactly one of Dir and Path must be set.
	Path string
	// InputDigest identifies the input reads for cache keying (Dir mode):
	// snapshot.DigestFiles over the fasta/qual pair, or
	// snapshot.DigestReads over an in-memory set. The engine cannot
	// compute it — by the time ranks run, each holds only its shard.
	InputDigest string
}

// ServeOptions configures the session layer and the reptile-serve front
// door (DESIGN.md §17).
type ServeOptions struct {
	// Addr is the TCP address the reptile-serve front door listens on for
	// client connections ("" when the process is not a front door). The
	// engine itself never reads it; it rides here so config and flags have
	// one home.
	Addr string
	// MaxSessions caps how many sessions one tenant may hold open at a
	// single executor rank at once; an open beyond it gets the typed
	// capacity rejection. 0 means DefaultMaxSessions.
	MaxSessions int
	// TenantWindow bounds each session's in-flight chunks — the Caller-style
	// pipeline depth between a session's submitter and its executor. 0 means
	// the caller default.
	TenantWindow int
}

// Session-layer defaults.
const DefaultMaxSessions = 8

// serveMaxSessions resolves the per-tenant session cap.
func (o Options) serveMaxSessions() int {
	if o.Serve != nil && o.Serve.MaxSessions > 0 {
		return o.Serve.MaxSessions
	}
	return DefaultMaxSessions
}

// serveTenantWindow resolves the per-session chunk window.
func (o Options) serveTenantWindow() int {
	if o.Serve != nil && o.Serve.TenantWindow > 0 {
		return o.Serve.TenantWindow
	}
	return msgplane.DefaultWindow
}

// sessionCallerWindow sizes the shared session caller's per-peer window so
// the per-session windows bind first: a full tenant's worth of sessions,
// each with a full chunk window plus an open or close in flight, still
// fits.
func (o Options) sessionCallerWindow() int {
	w := o.serveMaxSessions() * (o.serveTenantWindow() + 2)
	if w < 32 {
		w = 32
	}
	return w
}

// Validate checks the serve/session knobs.
func (s *ServeOptions) Validate() error {
	if s.MaxSessions < 0 {
		return fmt.Errorf("core: negative serve session cap")
	}
	if s.TenantWindow < 0 {
		return fmt.Errorf("core: negative serve tenant window")
	}
	return nil
}

// Validate checks the whole option set.
func (o Options) Validate() error {
	if err := o.Config.Validate(); err != nil {
		return err
	}
	if o.Serve != nil {
		if err := o.Serve.Validate(); err != nil {
			return err
		}
	}
	if s := o.Snapshot; s != nil {
		if (s.Dir == "") == (s.Path == "") {
			return fmt.Errorf("core: SnapshotOptions needs exactly one of Dir (content-hash cache) or Path (explicit prefix)")
		}
		if o.AutoThresholds {
			return fmt.Errorf("core: Snapshot is incompatible with AutoThresholds: auto thresholds are resolved during the build the snapshot skips, so the cache key could not name them")
		}
		if o.Heuristics.RetainReadKmers {
			return fmt.Errorf("core: Snapshot is incompatible with RetainReadKmers/CacheRemote: the retained reads tables are a byproduct of the build the snapshot skips")
		}
	}
	if o.Replicas < 0 || o.Replicas > 2 {
		return fmt.Errorf("core: Replicas=%d (want 0, 1, or 2)", o.Replicas)
	}
	if o.Replicas >= 2 && o.Heuristics.LookupBatch == 0 {
		return fmt.Errorf("core: Replicas=2 requires LookupBatch: the failover retry rides the batched request-id protocol")
	}
	if o.WorkSteal && o.Heuristics.LookupBatch == 0 {
		return fmt.Errorf("core: WorkSteal requires LookupBatch: thieves share the responder through the request-id protocol")
	}
	return o.Heuristics.Validate()
}

// DefaultOptions is the configuration the paper's scaling experiments use:
// base heuristics plus static load balancing.
func DefaultOptions() Options {
	return Options{Config: reptile.Default(), LoadBalance: true}
}
