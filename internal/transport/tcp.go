package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"
)

// TCPConfig describes one rank of a multi-process TCP group. Addrs lists
// every rank's listen address in rank order; all processes must agree on it
// (the moral equivalent of an MPI host file).
type TCPConfig struct {
	Rank  int
	Addrs []string
	// DialTimeout bounds the whole connection-establishment phase.
	// Zero means 30s.
	DialTimeout time.Duration
	// Retry is the delay between dial attempts while peers start up.
	// Zero means 50ms.
	Retry time.Duration
	// PeerTimeout bounds silence on an established link: if no frame (not
	// even a heartbeat) arrives from a peer within this window, the peer is
	// declared down and the endpoint fails with ErrPeerDown. It also bounds
	// blocked writes into a stalled socket. Zero disables deadlines and
	// heartbeats — the pre-failure-model behavior, where only EOF/reset
	// surfaces a dead peer.
	PeerTimeout time.Duration
	// HeartbeatInterval is how often an idle link is kept alive. Zero means
	// PeerTimeout/3. Ignored when PeerTimeout is zero.
	HeartbeatInterval time.Duration
}

// frame layout: tag int32 | length uint32 | crc32 uint32 | payload, with the
// CRC (IEEE) covering the tag+length header and the payload. The sender's
// rank is established once per connection by a 4-byte hello, not repeated
// per frame. A CRC mismatch on receive surfaces as ErrCorruptFrame instead
// of a garbage decode further up the stack.
const (
	frameHeader = 12
	crcOffset   = 8
)

// maxFrame bounds a single payload; collectives chunk beneath this.
const maxFrame = 1 << 30

// tcpPeer is one live connection with a serialized writer.
type tcpPeer struct {
	mu   sync.Mutex
	conn net.Conn
	// corruptNext, when armed by the chaos hook, flips one payload byte in
	// the next outgoing frame after its CRC has been computed, so the
	// corruption is detectable on the receive side. One-shot.
	corruptNext bool // guarded by mu
}

func (p *tcpPeer) write(tag int, data []byte, timeout time.Duration) error {
	buf := make([]byte, frameHeader+len(data))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(data)))
	copy(buf[frameHeader:], data)
	crc := crc32.ChecksumIEEE(buf[0:crcOffset])
	crc = crc32.Update(crc, crc32.IEEETable, data)
	binary.LittleEndian.PutUint32(buf[crcOffset:frameHeader], crc)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.corruptNext {
		p.corruptNext = false
		if len(data) > 0 {
			buf[frameHeader] ^= 0xff
		} else {
			buf[0] ^= 0xff
		}
	}
	if timeout > 0 {
		p.conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	_, err := p.conn.Write(buf)
	return err
}

// armCorrupt makes the next frame written to this peer fail its CRC check
// on arrival.
func (p *tcpPeer) armCorrupt() {
	p.mu.Lock()
	p.corruptNext = true
	p.mu.Unlock()
}

// NewTCP joins (or forms) a full-mesh TCP group and returns this rank's
// endpoint, blocking until every pairwise connection is up. Rank i accepts
// connections from ranks j > i and dials ranks j < i, so each pair shares
// exactly one duplex connection.
func NewTCP(cfg TCPConfig) (*Endpoint, error) {
	np := len(cfg.Addrs)
	if np < 1 {
		return nil, fmt.Errorf("transport: empty address list")
	}
	if cfg.Rank < 0 || cfg.Rank >= np {
		return nil, fmt.Errorf("transport: rank %d out of range [0,%d)", cfg.Rank, np)
	}
	dialTimeout := cfg.DialTimeout
	if dialTimeout == 0 {
		dialTimeout = 30 * time.Second
	}
	retry := cfg.Retry
	if retry == 0 {
		retry = 50 * time.Millisecond
	}
	heartbeat := cfg.HeartbeatInterval
	if heartbeat == 0 {
		heartbeat = cfg.PeerTimeout / 3
	}

	e := &Endpoint{
		rank:     cfg.Rank,
		size:     np,
		mbox:     newMailbox(),
		counters: NewCounters(np),
	}
	peers := make([]*tcpPeer, np)

	var ln net.Listener
	needAccepts := np - 1 - cfg.Rank
	if needAccepts > 0 {
		var err error
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("transport: rank %d listen: %w", cfg.Rank, err)
		}
	}

	errc := make(chan error, np)
	var wg sync.WaitGroup

	// Accept from higher ranks.
	if needAccepts > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < needAccepts; i++ {
				conn, err := ln.Accept()
				if err != nil {
					errc <- err
					return
				}
				var hello [4]byte
				if _, err := io.ReadFull(conn, hello[:]); err != nil {
					errc <- err
					return
				}
				from := int(binary.LittleEndian.Uint32(hello[:]))
				if from <= cfg.Rank || from >= np {
					errc <- fmt.Errorf("transport: bogus hello from rank %d", from)
					return
				}
				peers[from] = &tcpPeer{conn: conn}
			}
		}()
	}

	// Dial lower ranks.
	for j := 0; j < cfg.Rank; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			deadline := time.Now().Add(dialTimeout)
			for {
				conn, err := net.Dial("tcp", cfg.Addrs[j])
				if err == nil {
					var hello [4]byte
					binary.LittleEndian.PutUint32(hello[:], uint32(cfg.Rank))
					if _, err := conn.Write(hello[:]); err != nil {
						errc <- err
						return
					}
					peers[j] = &tcpPeer{conn: conn}
					return
				}
				if time.Now().After(deadline) {
					errc <- fmt.Errorf("transport: rank %d dialing rank %d: %w", cfg.Rank, j, err)
					return
				}
				// Backoff while the peer process starts up: polling an
				// external resource, not synchronizing goroutines.
				time.Sleep(retry) // reptile-lint:allow nosleepsync dial retry backoff
			}
		}(j)
	}

	wg.Wait()
	if ln != nil {
		ln.Close()
	}
	select {
	case err := <-errc:
		for _, p := range peers {
			if p != nil {
				p.conn.Close()
			}
		}
		return nil, err
	default:
	}

	// Reader goroutines: one per peer, delivering into the shared mailbox.
	// They exit when their connection is torn down; Close joins them so no
	// reader can touch the mailbox after Close returns.
	var readers sync.WaitGroup
	for from, p := range peers {
		if p == nil {
			continue
		}
		readers.Add(1)
		go func(from int, conn net.Conn) {
			defer readers.Done()
			readLoop(e, from, conn, cfg.PeerTimeout)
		}(from, p.conn)
	}

	// Heartbeat goroutine: while the application is idle, an empty control
	// frame per interval keeps every peer's read deadline from expiring, so
	// PeerTimeout distinguishes "quiet but alive" from "gone".
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	if cfg.PeerTimeout > 0 {
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			ticker := time.NewTicker(heartbeat)
			defer ticker.Stop()
			hb := encodeHeartbeat(cfg.Rank)
			for {
				select {
				case <-hbStop:
					return
				case <-ticker.C:
					for _, p := range peers {
						if p != nil {
							// A write error here means the reader side is
							// about to (or already did) declare the peer
							// down; the reader owns failure reporting.
							p.write(hb.Tag, hb.Data, cfg.PeerTimeout)
						}
					}
				}
			}
		}()
	}

	e.sendFn = func(to int, m Message) error {
		if to == e.rank {
			return e.deliver(m)
		}
		if len(m.Data) > maxFrame {
			return fmt.Errorf("transport: frame of %d bytes exceeds %d", len(m.Data), maxFrame)
		}
		if err := peers[to].write(m.Tag, m.Data, cfg.PeerTimeout); err != nil {
			if e.closed.Load() {
				return ErrClosed
			}
			// The reader may have severed this link already (CRC failure,
			// EOF) — its poison names the root cause; the raw write error is
			// just the teardown's echo.
			if perr := e.mbox.poison(); perr != nil {
				return perr
			}
			return &PeerDownError{Rank: to, Cause: err}
		}
		return nil
	}
	e.corruptFn = func(to int) {
		if to != e.rank && peers[to] != nil {
			peers[to].armCorrupt()
		}
	}
	e.dropFn = func(to int) {
		if to != e.rank && peers[to] != nil {
			// Sever the link as if the cable were pulled: our reader sees
			// EOF and declares the peer down; the peer's reader does the
			// same on its side.
			peers[to].conn.Close()
		}
	}
	e.departFn = func() {
		bye := encodeDepart(cfg.Rank)
		for _, p := range peers {
			if p != nil {
				// Best effort: a peer that already closed needs no notice.
				p.write(bye.Tag, bye.Data, cfg.PeerTimeout)
			}
		}
	}
	e.closeFn = func() error {
		close(hbStop)
		hbWG.Wait()
		for _, p := range peers {
			if p != nil {
				p.conn.Close()
			}
		}
		readers.Wait()
		return nil
	}
	return e, nil
}

// peerFailed records that the link to `from` failed: unless this endpoint
// is tearing itself down (Close in progress — readers seeing their own
// sockets close is not a peer failure), the mailbox is poisoned so every
// blocked and future receive returns the failure.
func (e *Endpoint) peerFailed(from int, cause error) {
	if e.closed.Load() {
		return
	}
	if _, ok := cause.(*CorruptFrameError); ok {
		// Corruption is never recoverable: it is a wire-integrity failure,
		// not a topology change, so it bypasses the peer-down handler.
		e.mbox.fail(cause)
		return
	}
	e.peerDown(from, cause)
}

func readLoop(e *Endpoint, from int, conn net.Conn, peerTimeout time.Duration) {
	var hdr [frameHeader]byte
	for {
		if peerTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(peerTimeout))
		}
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			e.peerFailed(from, err)
			return
		}
		tag := int(int32(binary.LittleEndian.Uint32(hdr[0:4])))
		n := binary.LittleEndian.Uint32(hdr[4:8])
		wantCRC := binary.LittleEndian.Uint32(hdr[crcOffset:frameHeader])
		if n > maxFrame {
			// A length this bogus means the header itself is damaged.
			e.peerFailed(from, &CorruptFrameError{From: from})
			conn.Close()
			return
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(conn, data); err != nil {
			e.peerFailed(from, err)
			return
		}
		crc := crc32.ChecksumIEEE(hdr[0:crcOffset])
		crc = crc32.Update(crc, crc32.IEEETable, data)
		if crc != wantCRC {
			// The frame boundary can no longer be trusted, so the link is
			// unusable: fail and drop the connection.
			e.peerFailed(from, &CorruptFrameError{From: from})
			conn.Close()
			return
		}
		if tag == tagDepart {
			return // the peer left cleanly; nothing follows on this link
		}
		if err := e.deliver(Message{From: from, Tag: tag, Data: data}); err != nil {
			return
		}
	}
}

// LoopbackAddrs returns np distinct loopback addresses starting at basePort,
// for single-machine TCP groups (examples and tests).
func LoopbackAddrs(np, basePort int) []string {
	out := make([]string, np)
	for i := range out {
		out[i] = fmt.Sprintf("127.0.0.1:%d", basePort+i)
	}
	return out
}
