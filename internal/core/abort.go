package core

import (
	"errors"
	"fmt"

	"reptile/internal/transport"
)

// AbortError is how every rank of a run reports a failure anywhere in the
// group: the rank where the failure originated, the pipeline phase it was
// in, and the root cause. It unwraps to the original error on the origin
// rank, and to the matching transport sentinel (ErrPeerDown,
// ErrCorruptFrame) on ranks that learned of the failure from the abort
// broadcast — so errors.Is works identically group-wide.
type AbortError struct {
	Rank  int    // rank where the failure originated
	Phase string // pipeline phase the origin was in
	Cause string // human-readable root cause
	err   error  // unwrap target; nil for remote application errors
}

func (a *AbortError) Error() string {
	return fmt.Sprintf("core: run aborted by rank %d in %s phase: %s", a.Rank, a.Phase, a.Cause)
}

// Unwrap exposes the root cause for errors.Is/As.
func (a *AbortError) Unwrap() error { return a.err }

// fail is the single exit ramp for every engine error. It turns err into
// the run's AbortError and — when this rank is the origin — broadcasts the
// abort record to the whole group (itself included, which unblocks this
// rank's own responder and any receive the worker is parked in):
//
//   - err already is an AbortError: the abort was handled upstream; pass
//     it through without broadcasting again.
//   - err is the transport's Aborted poison: another rank (or another
//     goroutine of this rank) broadcast first; decode its record.
//   - anything else: this rank is the origin. Build the record and
//     broadcast. Sends are best-effort — a rank whose endpoint is already
//     dead (a crashed rank) cannot say goodbye, and its peers detect the
//     loss through the transport instead.
func (ctx *rankCtx) fail(phase string, err error) error {
	var ab *AbortError
	if errors.As(err, &ab) {
		return err
	}
	var poison *transport.Aborted
	if errors.As(err, &poison) {
		if dec, derr := decodeAbortInfo(poison.Payload); derr == nil {
			return dec
		}
		return &AbortError{Rank: poison.From, Phase: phase, Cause: err.Error(), err: err}
	}
	// Transport-detected faults name the culpable rank: attribute the abort
	// to the peer that died (or sent the corrupt frame), not to whichever
	// rank happened to notice first — the phase is still the observer's.
	origin := ctx.rank
	var pd *transport.PeerDownError
	var cf *transport.CorruptFrameError
	if errors.As(err, &pd) {
		origin = pd.Rank
	} else if errors.As(err, &cf) {
		origin = cf.From
	}
	ab = &AbortError{Rank: origin, Phase: phase, Cause: err.Error(), err: err}
	payload := encodeAbortInfo(ab)
	for r := 0; r < ctx.np; r++ {
		// reptile-lint:allow errorflow best-effort broadcast: a peer that cannot take the frame is already gone, and ab is the error this rank returns
		_ = ctx.e.SendAbort(r, payload)
	}
	return ab
}
