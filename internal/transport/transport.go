// Package transport is the message-passing substrate the distributed
// Reptile engine runs on — the stand-in for MPI on BlueGene/Q, built from
// scratch on the standard library as the paper's algorithm requires only a
// small slice of MPI semantics:
//
//   - tagged point-to-point sends with per-(sender,tag) FIFO ordering,
//   - selective receive by tag (the MPI_Probe + tagged-recv pattern) and
//     receive-any (the paper's "universal" heuristic),
//   - and collectives (package collective) layered on top.
//
// Two transports implement the same Endpoint surface: proc (ranks are
// goroutines in one process, delivery over in-memory mailboxes) and tcp
// (one process per rank, full-mesh length-prefixed frames over net).
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrPeerDown is the sentinel matched (errors.Is) by every failure that
// means "a remote rank is gone": a TCP connection reset or EOF, a read
// deadline expiring with no frames (not even heartbeats), or a peer
// process/goroutine that closed its endpoint mid-run.
var ErrPeerDown = errors.New("transport: peer down")

// ErrCorruptFrame is the sentinel matched (errors.Is) by frame-integrity
// failures: a TCP frame whose CRC32 does not cover its bytes is dropped and
// surfaces as this error instead of being decoded into garbage.
var ErrCorruptFrame = errors.New("transport: corrupt frame")

// ErrInjected marks errors manufactured by the Chaos wrapper (an injected
// rank crash), so tests can tell a scheduled fault from an organic one.
var ErrInjected = errors.New("transport: injected fault")

// PeerDownError reports which rank was lost and why. It matches ErrPeerDown
// under errors.Is.
type PeerDownError struct {
	Rank  int   // the rank that is unreachable
	Cause error // underlying network error, if any
}

func (e *PeerDownError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("transport: peer rank %d down: %v", e.Rank, e.Cause)
	}
	return fmt.Sprintf("transport: peer rank %d down", e.Rank)
}

// Is reports sentinel identity so errors.Is(err, ErrPeerDown) matches.
func (e *PeerDownError) Is(target error) bool { return target == ErrPeerDown }

// Unwrap exposes the underlying cause.
func (e *PeerDownError) Unwrap() error { return e.Cause }

// CorruptFrameError reports a frame from a specific peer that failed its
// CRC32 check. It matches ErrCorruptFrame under errors.Is.
type CorruptFrameError struct {
	From int // sender rank of the bad frame
}

func (e *CorruptFrameError) Error() string {
	return fmt.Sprintf("transport: corrupt frame from rank %d (CRC mismatch)", e.From)
}

// Is reports sentinel identity so errors.Is(err, ErrCorruptFrame) matches.
func (e *CorruptFrameError) Is(target error) bool { return target == ErrCorruptFrame }

// Aborted is the error every pending and future receive returns after a
// peer broadcast a run-wide abort (SendAbort). Payload carries the
// application-level abort record opaque to the transport; package core
// decodes it into an AbortError.
type Aborted struct {
	From    int    // rank that originated the abort
	Payload []byte // application abort record
}

func (e *Aborted) Error() string {
	return fmt.Sprintf("transport: run aborted by rank %d", e.From)
}

// Conn is the endpoint surface the engine and the collectives program
// against. Both the concrete *Endpoint and the fault-injecting *Chaos
// wrapper implement it, so any layer of the stack can run unchanged under
// an injected fault schedule.
type Conn interface {
	Rank() int
	Size() int
	Counters() *Counters
	Send(to, tag int, data []byte) error
	SendAbort(to int, payload []byte) error
	Recv(tag int) (Message, error)
	RecvMatch(match func(tag int) bool) (Message, error)
	TryRecvMatch(match func(tag int) bool) (Message, bool, error)
	MaxQueueDepth() int
	SetPeerDownHandler(h func(rank int, cause error) bool)
	Close() error
}

var (
	_ Conn = (*Endpoint)(nil)
	_ Conn = (*Chaos)(nil)
)

// Control-plane tags, reserved far below the collective tag range (which
// counts down from -1, one tag per collective operation): a run would need
// ~2^30 collectives before colliding. They never reach application receive
// paths — deliver intercepts both.
const (
	tagAbort     = -1 << 30   // run-wide abort broadcast; poisons the mailbox
	tagHeartbeat = -1<<30 + 1 // keepalive on idle TCP links; dropped on arrival
	tagDepart    = -1<<30 + 2 // a TCP peer's last frame before a clean close
)

// encodeAbort builds the abort control message carrying an opaque
// application abort record.
func encodeAbort(from int, payload []byte) Message {
	return Message{From: from, Tag: tagAbort, Data: payload}
}

// encodeHeartbeat builds the empty keepalive message that holds a TCP
// link's read deadline open while the application is idle.
func encodeHeartbeat(from int) Message {
	return Message{From: from, Tag: tagHeartbeat}
}

// encodeDepart builds the empty frame a TCP rank sends on every link just
// before a clean close.
func encodeDepart(from int) Message {
	return Message{From: from, Tag: tagDepart}
}

// Message is one delivered unit: the sender's rank, the application tag,
// and an owned payload.
type Message struct {
	From int
	Tag  int
	Data []byte
}

// Counters tracks per-endpoint traffic; the machine model converts these
// into projected network time. All methods are safe for concurrent use.
type Counters struct {
	msgsSent  atomic.Int64
	bytesSent atomic.Int64
	msgsRecv  atomic.Int64
	bytesRecv atomic.Int64
	perDest   []atomic.Int64 // messages per destination rank
	perDestB  []atomic.Int64 // bytes per destination rank
}

// NewCounters sizes the per-destination tallies for np ranks.
func NewCounters(np int) *Counters {
	return &Counters{
		perDest:  make([]atomic.Int64, np),
		perDestB: make([]atomic.Int64, np),
	}
}

func (c *Counters) countSend(to, bytes int) {
	c.msgsSent.Add(1)
	c.bytesSent.Add(int64(bytes))
	c.perDest[to].Add(1)
	c.perDestB[to].Add(int64(bytes))
}

func (c *Counters) countRecv(bytes int) {
	c.msgsRecv.Add(1)
	c.bytesRecv.Add(int64(bytes))
}

// MsgsSent returns the total messages sent.
func (c *Counters) MsgsSent() int64 { return c.msgsSent.Load() }

// BytesSent returns the total payload bytes sent.
func (c *Counters) BytesSent() int64 { return c.bytesSent.Load() }

// MsgsRecv returns the total messages received (delivered to a Recv).
func (c *Counters) MsgsRecv() int64 { return c.msgsRecv.Load() }

// BytesRecv returns the total payload bytes received.
func (c *Counters) BytesRecv() int64 { return c.bytesRecv.Load() }

// MsgsTo returns messages sent to a specific rank.
func (c *Counters) MsgsTo(rank int) int64 { return c.perDest[rank].Load() }

// BytesTo returns bytes sent to a specific rank.
func (c *Counters) BytesTo(rank int) int64 { return c.perDestB[rank].Load() }

// PerDestSnapshot copies the current per-destination tallies; engines take
// snapshots at phase boundaries to attribute traffic to phases.
func (c *Counters) PerDestSnapshot() (msgs, bytes []int64) {
	msgs = make([]int64, len(c.perDest))
	bytes = make([]int64, len(c.perDestB))
	for i := range c.perDest {
		msgs[i] = c.perDest[i].Load()
		bytes[i] = c.perDestB[i].Load()
	}
	return msgs, bytes
}

// Endpoint is one rank's connection to the group. It is safe for use by
// multiple goroutines (the paper runs a worker thread and a communication
// thread per rank).
type Endpoint struct {
	rank int
	size int

	mbox     *mailbox
	counters *Counters

	sendFn  func(to int, m Message) error
	closeFn func() error

	// Fault-injection hooks installed by each transport constructor and
	// driven only by the Chaos wrapper: corruptFn flips bytes in the next
	// frame to rank `to` (after its CRC is computed), dropFn severs the
	// link to rank `to` as if the cable were pulled. Nil when the transport
	// has no meaningful implementation.
	corruptFn func(to int)
	dropFn    func(to int)
	// departFn sends the clean-exit frame on every link (TCP only).
	departFn func()

	// peerDownH, when installed, is consulted before a lost peer poisons
	// the mailbox; see SetPeerDownHandler.
	peerDownH atomic.Pointer[func(rank int, cause error) bool]

	closed atomic.Bool
}

// SetPeerDownHandler installs (or, with nil, removes) the recovery hook the
// endpoint consults when it learns a peer is gone. The handler returns true
// to absorb the event — the mailbox is not poisoned and the run continues,
// with the recovery layer responsible for rerouting traffic — or false to
// fall back to the default fatal path (mailbox poisoned with a
// PeerDownError). The handler may be invoked from any transport goroutine,
// including the dying peer's own in the proc transport, and must be safe
// for concurrent use. Frame corruption is never offered to the handler:
// a CRC mismatch is not a recoverable topology change.
func (e *Endpoint) SetPeerDownHandler(h func(rank int, cause error) bool) {
	if h == nil {
		e.peerDownH.Store(nil)
		return
	}
	e.peerDownH.Store(&h)
}

// peerDown routes one peer-loss event: through the recovery handler when
// one is installed and it absorbs the event, into mailbox poison otherwise.
func (e *Endpoint) peerDown(rank int, cause error) {
	err := &PeerDownError{Rank: rank, Cause: cause}
	if h := e.peerDownH.Load(); h != nil && (*h)(rank, err) {
		return
	}
	e.mbox.fail(err)
}

// Rank returns this endpoint's rank in [0, Size).
func (e *Endpoint) Rank() int { return e.rank }

// Size returns the number of ranks in the group.
func (e *Endpoint) Size() int { return e.size }

// Counters returns the traffic counters.
func (e *Endpoint) Counters() *Counters { return e.counters }

// Send delivers data to rank `to` with the given tag. The payload is owned
// by the transport after the call; callers must not reuse it. Self-sends
// are legal and loop back through the local mailbox.
func (e *Endpoint) Send(to, tag int, data []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if to < 0 || to >= e.size {
		return fmt.Errorf("transport: send to rank %d of %d", to, e.size)
	}
	e.counters.countSend(to, len(data))
	return e.sendFn(to, Message{From: e.rank, Tag: tag, Data: data})
}

// Recv blocks until a message with exactly this tag arrives (any sender).
func (e *Endpoint) Recv(tag int) (Message, error) {
	m, err := e.mbox.recv(func(t int) bool { return t == tag })
	if err == nil {
		e.counters.countRecv(len(m.Data))
	}
	return m, err
}

// RecvMatch blocks until a message whose tag satisfies match arrives. The
// responder loop uses it to service multiple request tags at once.
func (e *Endpoint) RecvMatch(match func(tag int) bool) (Message, error) {
	m, err := e.mbox.recv(match)
	if err == nil {
		e.counters.countRecv(len(m.Data))
	}
	return m, err
}

// TryRecvMatch is RecvMatch without blocking; ok=false means no matching
// message is currently queued.
func (e *Endpoint) TryRecvMatch(match func(tag int) bool) (Message, bool, error) {
	m, ok, err := e.mbox.tryRecv(match)
	if ok {
		e.counters.countRecv(len(m.Data))
	}
	return m, ok, err
}

// SendAbort broadcasts-one-peer-at-a-time the run-wide abort control
// message to rank `to`. Abort traffic is control plane: it bypasses the
// application counters so fault handling does not distort the traffic
// model. Self-sends are legal and poison the local mailbox, unblocking
// this rank's own responder/worker goroutines.
func (e *Endpoint) SendAbort(to int, payload []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if to < 0 || to >= e.size {
		return fmt.Errorf("transport: abort to rank %d of %d", to, e.size)
	}
	return e.sendFn(to, encodeAbort(e.rank, payload))
}

// deliver enqueues an inbound message; transports call it from their
// delivery paths. Control tags never reach the application: heartbeats are
// dropped (their only job was resetting the peer's read deadline), and an
// abort poisons the mailbox so every pending and future receive fails fast.
func (e *Endpoint) deliver(m Message) error {
	switch m.Tag {
	case tagHeartbeat:
		return nil
	case tagAbort:
		e.mbox.fail(&Aborted{From: m.From, Payload: m.Data})
		return nil
	}
	return e.mbox.put(m)
}

// MaxQueueDepth returns the high-water mark of pending messages in this
// endpoint's mailbox — the backlog a slow responder accumulated.
func (e *Endpoint) MaxQueueDepth() int {
	e.mbox.mu.Lock()
	defer e.mbox.mu.Unlock()
	return e.mbox.maxDepth
}

// Depart announces a clean exit to every peer ahead of Close. Over TCP each
// link carries one final departure frame; the peer's reader stops there,
// so the EOF of the closing socket is not mistaken for a failed rank. Call
// it only after the rank's last protocol exchange, when no peer can still
// expect a frame from it. A peer that vanishes without departing — a
// crash, a killed process, a plain Close — is still reported down.
// In-process endpoints close as a group and need no announcement.
func (e *Endpoint) Depart() {
	if e.departFn != nil && !e.closed.Load() {
		e.departFn()
	}
}

// Close shuts the endpoint down. Blocked receivers return ErrClosed.
func (e *Endpoint) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	e.mbox.close()
	if e.closeFn != nil {
		return e.closeFn()
	}
	return nil
}

// mailbox is an unbounded tag-filterable message queue. Unboundedness is a
// deliberate choice: the correction phase's request/response traffic forms
// cycles between ranks, and any bounded intermediate queue could deadlock
// under bursty load; memory for in-flight messages is part of the 512 MB
// per-process budget the engine accounts for separately.
// Messages are demultiplexed into per-tag FIFO queues on arrival, so a
// selective receive is O(number of distinct tags), not O(queued messages):
// MPI guarantees ordering only per (sender, tag), so per-tag FIFOs preserve
// every ordering the algorithm may rely on.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond        // signals on mu
	byTag   map[int]*tagQueue // guarded by mu (tagQueues are owned by mu too)
	closed  bool              // guarded by mu
	failErr error             // guarded by mu; poison set by fail, checked before every receive
	// Queue-depth accounting: depth is current pending messages, maxDepth
	// the high-water mark. Unbounded queues make backlog invisible unless
	// measured; the engine surfaces this per rank.
	depth    int // guarded by mu
	maxDepth int // guarded by mu
	// waiting counts receivers blocked in cond.Wait, and watchers holds
	// one channel per awaitWaiters caller, closed when enough receivers
	// are blocked — tests wait for "n receivers are parked" instead of
	// sleeping and hoping.
	waiting  int        // guarded by mu
	watchers []*watcher // guarded by mu
}

// watcher is one awaitWaiters subscription: ch is closed once the mailbox
// has at least n receivers blocked.
type watcher struct {
	n  int
	ch chan struct{}
}

// tagQueue is a FIFO with an amortized-O(1) pop (head index advances and
// the backing slice is compacted when mostly consumed).
type tagQueue struct {
	msgs []Message
	head int
}

func (q *tagQueue) push(m Message) { q.msgs = append(q.msgs, m) }

func (q *tagQueue) pop() (Message, bool) {
	if q.head >= len(q.msgs) {
		return Message{}, false
	}
	m := q.msgs[q.head]
	q.msgs[q.head] = Message{} // release payload for GC
	q.head++
	if q.head > 64 && q.head*2 >= len(q.msgs) {
		n := copy(q.msgs, q.msgs[q.head:])
		q.msgs = q.msgs[:n]
		q.head = 0
	}
	return m, true
}

func (q *tagQueue) empty() bool { return q.head >= len(q.msgs) }

func newMailbox() *mailbox {
	mb := &mailbox{byTag: make(map[int]*tagQueue)}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m Message) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return ErrClosed
	}
	if mb.failErr != nil {
		// Poisoned: the owner is failing fast, so late arrivals are dropped
		// silently — the sender must not see an error for the receiver's
		// abort.
		return nil
	}
	q := mb.byTag[m.Tag]
	if q == nil {
		q = &tagQueue{}
		mb.byTag[m.Tag] = q
	}
	q.push(m)
	mb.depth++
	if mb.depth > mb.maxDepth {
		mb.maxDepth = mb.depth
	}
	mb.cond.Broadcast()
	return nil
}

// take removes and returns a pending message whose tag matches.
//
// reptile-lint:holds mu
func (mb *mailbox) take(match func(int) bool) (Message, bool) {
	for tag, q := range mb.byTag {
		if q.empty() || !match(tag) {
			continue
		}
		m, ok := q.pop()
		if ok {
			mb.depth--
		}
		return m, ok
	}
	return Message{}, false
}

func (mb *mailbox) recv(match func(int) bool) (Message, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		// Matching queued messages drain even after a poison: a peer that
		// finished and closed gracefully may race its final protocol
		// message (e.g. the stop broadcast) against the EOF its departure
		// causes, and that message must still be deliverable. Only
		// receives that would block fail with the poison.
		if m, ok := mb.take(match); ok {
			return m, nil
		}
		if mb.failErr != nil {
			return Message{}, mb.failErr
		}
		if mb.closed {
			return Message{}, ErrClosed
		}
		mb.waiting++
		mb.notifyWatchers()
		mb.cond.Wait()
		mb.waiting--
	}
}

// fail poisons the mailbox: every receiver currently blocked and every
// future receive returns err immediately. The first poison wins; a close
// that already happened takes precedence. Unlike close, fail leaves the
// endpoint's send side alone — a poisoned rank can still broadcast its
// abort record before tearing down.
func (mb *mailbox) fail(err error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed || mb.failErr != nil {
		return
	}
	mb.failErr = err
	// Release awaitWaiters subscriptions: blocked receivers are about to
	// drain away with the failure.
	for _, w := range mb.watchers {
		close(w.ch)
	}
	mb.watchers = nil
	mb.cond.Broadcast()
}

// poison returns the failure the mailbox is poisoned with, or nil. Senders
// consult it so a send that fails *because* the receive side already
// declared the link dead (peer down, corrupt frame) reports that root cause
// rather than the raw socket error the teardown provoked.
func (mb *mailbox) poison() error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.failErr
}

// notifyWatchers releases every awaitWaiters subscription whose threshold
// the current waiting count satisfies.
//
// reptile-lint:holds mu
func (mb *mailbox) notifyWatchers() {
	if len(mb.watchers) == 0 {
		return
	}
	kept := mb.watchers[:0]
	for _, w := range mb.watchers {
		if mb.waiting >= w.n {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	mb.watchers = kept
}

// awaitWaiters returns a channel that is closed once at least n receivers
// are blocked in this mailbox. It is the deterministic replacement for
// "sleep and assume the receiver got there" in tests.
func (mb *mailbox) awaitWaiters(n int) <-chan struct{} {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	ch := make(chan struct{})
	if mb.waiting >= n {
		close(ch)
		return ch
	}
	mb.watchers = append(mb.watchers, &watcher{n: n, ch: ch})
	return ch
}

func (mb *mailbox) tryRecv(match func(int) bool) (Message, bool, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if m, ok := mb.take(match); ok {
		return m, true, nil
	}
	if mb.failErr != nil {
		return Message{}, false, mb.failErr
	}
	if mb.closed {
		return Message{}, false, ErrClosed
	}
	return Message{}, false, nil
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	// Release awaitWaiters subscriptions too: blocked receivers are about
	// to drain away, so the awaited state can never be reached.
	for _, w := range mb.watchers {
		close(w.ch)
	}
	mb.watchers = nil
	mb.cond.Broadcast()
	mb.mu.Unlock()
}
