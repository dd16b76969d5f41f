package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("delay=2ms,jitter=1ms,slow=1x8,crash=2@100,corrupt=1@50,drop=0-3@30", 42)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || p.Delay != 2*time.Millisecond || p.Jitter != time.Millisecond {
		t.Errorf("timing: %+v", p)
	}
	if p.SlowRank != 1 || p.SlowFactor != 8 {
		t.Errorf("slow: %+v", p)
	}
	if p.CrashRank != 2 || p.CrashAfter != 100 {
		t.Errorf("crash: %+v", p)
	}
	if p.CorruptRank != 1 || p.CorruptAfter != 50 {
		t.Errorf("corrupt: %+v", p)
	}
	if p.DropRank != 0 || p.DropPeer != 3 || p.DropAfter != 30 {
		t.Errorf("drop: %+v", p)
	}
	if p.Benign() {
		t.Error("plan with crash/corrupt/drop reported benign")
	}
	if err := p.Validate(4); err != nil {
		t.Errorf("validate np=4: %v", err)
	}
	if err := p.Validate(2); err == nil {
		t.Error("validate np=2 should reject crash rank 2")
	}

	empty, err := ParsePlan("", 7)
	if err != nil {
		t.Fatal(err)
	}
	if !empty.Benign() || empty.Seed != 7 {
		t.Errorf("empty spec: %+v", empty)
	}

	for _, bad := range []string{"delay", "warp=1", "crash=1", "drop=1@5", "delay=xs"} {
		if _, err := ParsePlan(bad, 0); err == nil {
			t.Errorf("spec %q should fail", bad)
		}
	}
}

// TestChaosBenignPreservesOrder checks the core benign-fault invariant at
// the transport level: delay, jitter, and a slow rank reorder nothing.
func TestChaosBenignPreservesOrder(t *testing.T) {
	eps, err := NewProcGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseGroup(eps)
	plan := NewPlan(1)
	plan.Delay = 50 * time.Microsecond
	plan.Jitter = 50 * time.Microsecond
	plan.SlowRank = 0
	sender := NewChaos(eps[0], plan)
	const n = 50
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if err := sender.Send(1, 7, []byte{byte(i)}); err != nil {
				done <- err
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		m, err := eps[1].Recv(7)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.Data, []byte{byte(i)}) {
			t.Fatalf("message %d out of order: got %v", i, m.Data)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if sender.FaultsInjected() != 0 {
		t.Errorf("benign plan injected %d faults", sender.FaultsInjected())
	}
}

func TestChaosCrashIsInjectedAndPeerSeesDown(t *testing.T) {
	eps, err := NewProcGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseGroup(eps)
	plan := NewPlan(0)
	plan.CrashRank = 0
	plan.CrashAfter = 3
	c := NewChaos(eps[0], plan)
	for i := 0; i < 2; i++ {
		if err := c.Send(1, 1, nil); err != nil {
			t.Fatalf("send %d before crash: %v", i, err)
		}
	}
	if err := c.Send(1, 1, nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("crash send: got %v, want ErrInjected", err)
	}
	// Every later send fails the same way: the rank is dead.
	if err := c.Send(1, 1, nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-crash send: got %v", err)
	}
	// The peer sees the loss as ErrPeerDown, not a hang.
	if _, err := eps[1].Recv(99); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("peer recv: got %v, want ErrPeerDown", err)
	}
	if c.FaultsInjected() != 1 {
		t.Errorf("faults = %d, want 1", c.FaultsInjected())
	}
}

func TestChaosCorruptPoisonsProcReceiver(t *testing.T) {
	eps, err := NewProcGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseGroup(eps)
	plan := NewPlan(0)
	plan.CorruptRank = 0
	plan.CorruptAfter = 1
	c := NewChaos(eps[0], plan)
	if err := c.Send(1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := eps[1].Recv(1); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("recv after corruption: got %v, want ErrCorruptFrame", err)
	}
}

func TestChaosDropDownsBothEnds(t *testing.T) {
	eps, err := NewProcGroup(3)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseGroup(eps)
	plan := NewPlan(0)
	plan.DropRank = 0
	plan.DropPeer = 2
	plan.DropAfter = 1
	c := NewChaos(eps[0], plan)
	if err := c.Send(1, 1, nil); err != nil {
		t.Fatal(err) // the send itself goes to rank 1; the 0–2 link dies
	}
	if _, err := c.Recv(5); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("dropper recv: got %v, want ErrPeerDown", err)
	}
	if _, err := eps[2].Recv(5); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("dropped peer recv: got %v, want ErrPeerDown", err)
	}
	// Rank 1 is not on the dropped link and keeps working.
	if err := eps[1].Send(1, 3, []byte("self")); err != nil {
		t.Fatal(err)
	}
	if m, err := eps[1].Recv(3); err != nil || string(m.Data) != "self" {
		t.Fatalf("bystander traffic: %v %q", err, m.Data)
	}
}

func TestAbortPoisonsAllReceives(t *testing.T) {
	eps, err := NewProcGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseGroup(eps)
	if err := eps[0].SendAbort(1, []byte("record")); err != nil {
		t.Fatal(err)
	}
	var ab *Aborted
	_, err = eps[1].Recv(1)
	if !errors.As(err, &ab) {
		t.Fatalf("recv: got %v, want *Aborted", err)
	}
	if ab.From != 0 || string(ab.Payload) != "record" {
		t.Errorf("abort record: %+v", ab)
	}
	// Poison is sticky: selective and non-blocking receives fail too.
	if _, err := eps[1].RecvMatch(func(int) bool { return true }); !errors.As(err, &ab) {
		t.Errorf("RecvMatch: %v", err)
	}
	if _, _, err := eps[1].TryRecvMatch(func(int) bool { return true }); !errors.As(err, &ab) {
		t.Errorf("TryRecvMatch: %v", err)
	}
	// A rank's own Close still reads as ErrClosed, not an abort.
	eps[0].Close()
	if _, err := eps[0].Recv(1); !errors.Is(err, ErrClosed) {
		t.Errorf("own close: %v", err)
	}
}

func TestProcPeerCloseSurfacesAsPeerDown(t *testing.T) {
	eps, err := NewProcGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseGroup(eps)
	recvErr := make(chan error, 1)
	go func() {
		defer close(recvErr)
		_, err := eps[0].Recv(1)
		recvErr <- err
	}()
	<-eps[0].mbox.awaitWaiters(1)
	eps[1].Close()
	var pd *PeerDownError
	err = <-recvErr
	if !errors.As(err, &pd) || pd.Rank != 1 {
		t.Fatalf("recv after peer close: got %v, want PeerDownError{Rank: 1}", err)
	}
	// Sends toward the dead peer also report peer-down now.
	if err := eps[0].Send(1, 1, nil); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("send to dead peer: got %v, want ErrPeerDown", err)
	}
}

// tcpGroupWith is tcpGroup with per-rank config control, for the
// failure-detection tests that need deadlines and heartbeats.
func tcpGroupWith(t *testing.T, np int, mod func(r int, cfg *TCPConfig)) []*Endpoint {
	t.Helper()
	addrs := freeAddrs(t, np)
	eps := make([]*Endpoint, np)
	var wg sync.WaitGroup
	errs := make(chan error, np)
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := TCPConfig{Rank: r, Addrs: addrs, DialTimeout: 10 * time.Second}
			if mod != nil {
				mod(r, &cfg)
			}
			e, err := NewTCP(cfg)
			if err != nil {
				errs <- fmt.Errorf("rank %d: %w", r, err)
				return
			}
			eps[r] = e
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	t.Cleanup(func() { CloseGroup(eps) })
	return eps
}

func TestTCPCorruptFrameDetectedByCRC(t *testing.T) {
	eps := tcpGroupWith(t, 2, nil)
	plan := NewPlan(0)
	plan.CorruptRank = 0
	plan.CorruptAfter = 2
	c := NewChaos(eps[0], plan)
	if err := c.Send(1, 1, []byte("clean")); err != nil {
		t.Fatal(err)
	}
	if m, err := eps[1].Recv(1); err != nil || string(m.Data) != "clean" {
		t.Fatalf("clean frame: %v %q", err, m.Data)
	}
	if err := c.Send(1, 1, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	var cf *CorruptFrameError
	_, err := eps[1].Recv(1)
	if !errors.As(err, &cf) || cf.From != 0 {
		t.Fatalf("corrupt frame: got %v, want CorruptFrameError{From: 0}", err)
	}
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("sentinel match failed: %v", err)
	}
}

func TestTCPPeerCloseSurfacesAsPeerDown(t *testing.T) {
	eps := tcpGroupWith(t, 2, nil)
	recvErr := make(chan error, 1)
	go func() {
		defer close(recvErr)
		_, err := eps[0].Recv(1)
		recvErr <- err
	}()
	<-eps[0].mbox.awaitWaiters(1)
	eps[1].Close()
	select {
	case err := <-recvErr:
		var pd *PeerDownError
		if !errors.As(err, &pd) || pd.Rank != 1 {
			t.Fatalf("recv after peer close: got %v, want PeerDownError{Rank: 1}", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("peer death not detected within deadline")
	}
}

// TestTCPDepartedPeerCloseIsNotAFailure is TestTCPPeerCloseSurfacesAsPeerDown
// with a departure first: the EOF of the departed rank's sockets must not
// wake rank 0's blocked receive with a peer-down error, and traffic among
// the remaining ranks still flows.
func TestTCPDepartedPeerCloseIsNotAFailure(t *testing.T) {
	eps := tcpGroupWith(t, 3, nil)
	got := make(chan error, 1)
	go func() {
		m, err := eps[0].Recv(5)
		if err == nil && string(m.Data) != "after departure" {
			err = fmt.Errorf("got %q", m.Data)
		}
		got <- err
	}()
	<-eps[0].mbox.awaitWaiters(1)
	eps[1].Depart()
	eps[1].Close()
	// A lost peer wakes the receiver within milliseconds (the test above);
	// a departed one must not wake it at all.
	select {
	case err := <-got:
		t.Fatalf("receive ended after a clean departure: %v", err)
	case <-time.After(200 * time.Millisecond):
	}
	if err := eps[2].Send(0, 5, []byte("after departure")); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("recv after a peer departed: %v", err)
	}
}

func TestTCPHeartbeatKeepsIdleLinkAlive(t *testing.T) {
	const timeout = 300 * time.Millisecond
	eps := tcpGroupWith(t, 2, func(r int, cfg *TCPConfig) {
		cfg.PeerTimeout = timeout
	})
	// Stay idle for several timeout windows; heartbeats must keep both
	// links open the whole time.
	<-time.After(3 * timeout)
	if err := eps[0].Send(1, 9, []byte("still here")); err != nil {
		t.Fatal(err)
	}
	if m, err := eps[1].Recv(9); err != nil || string(m.Data) != "still here" {
		t.Fatalf("after idle window: %v %q", err, m.Data)
	}
}

func TestTCPSilentPeerTimesOutAsPeerDown(t *testing.T) {
	const timeout = 250 * time.Millisecond
	// Rank 0 enforces a deadline; rank 1 never heartbeats (PeerTimeout
	// zero), simulating a peer that is connected but wedged.
	eps := tcpGroupWith(t, 2, func(r int, cfg *TCPConfig) {
		if r == 0 {
			cfg.PeerTimeout = timeout
		}
	})
	recvErr := make(chan error, 1)
	go func() {
		defer close(recvErr)
		_, err := eps[0].Recv(1)
		recvErr <- err
	}()
	select {
	case err := <-recvErr:
		if !errors.Is(err, ErrPeerDown) {
			t.Fatalf("got %v, want ErrPeerDown", err)
		}
	case <-time.After(10 * timeout):
		t.Fatal("silent peer not declared down within deadline")
	}
}

func TestTCPChaosDropSeversLink(t *testing.T) {
	eps := tcpGroupWith(t, 2, nil)
	plan := NewPlan(0)
	plan.DropRank = 0
	plan.DropPeer = 1
	plan.DropAfter = 1
	c := NewChaos(eps[0], plan)
	c.Send(1, 1, nil) // the drop fires here; the frame may or may not land
	// Rank 1's reader sees EOF on the severed link.
	if _, err := eps[1].Recv(42); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("dropped peer recv: got %v, want ErrPeerDown", err)
	}
}
