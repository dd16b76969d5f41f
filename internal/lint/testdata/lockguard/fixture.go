// Package fixture exercises the lockguard analyzer: true positives on
// unguarded accesses, clean passes on locked and holds-annotated code.
package fixture

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
	ok int // unguarded on purpose
}

// Good locks before touching the guarded field: clean.
func (c *counter) Good() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// addLocked runs under the caller's lock.
//
// reptile-lint:holds mu
func (c *counter) addLocked() { c.n++ }

// Bad reads the guarded field with no lock in sight.
func (c *counter) Bad() int {
	return c.n // want "guarded by c.mu"
}

// Unguarded touches only the unannotated field: clean.
func (c *counter) Unguarded() int { return c.ok }

// readBad shows the check also applies to plain functions via parameters.
func readBad(c *counter) int {
	return c.n // want "guarded by c.mu"
}

// Allowed demonstrates per-line suppression for post-join reads.
func (c *counter) Allowed() int {
	return c.n // reptile-lint:allow lockguard read after goroutines joined
}

type wrapper struct {
	inner *counter
}

// GoodChain locks the nested owner's mutex: clean.
func (w *wrapper) GoodChain() int {
	w.inner.mu.Lock()
	defer w.inner.mu.Unlock()
	return w.inner.n
}

// BadChain reaches through a field chain without the nested lock.
func (w *wrapper) BadChain() int {
	return w.inner.n // want "guarded by w.inner.mu"
}

type ring struct {
	mu    sync.RWMutex
	slots []int // guarded by mu
}

// Snapshot uses the read lock, which satisfies the guard too: clean.
func (r *ring) Snapshot() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]int, len(r.slots))
	copy(out, r.slots)
	return out
}

type broken struct {
	x int // guarded by missing -- want "has no field missing"
}

func use(b *broken) int {
	b2 := b
	_ = b2
	return 0
}

// aliasBad reaches the guarded field through a local alias of shared
// state: the checker types the local, so the access is still checked.
func aliasBad(w *wrapper) int {
	c := w.inner
	return c.n // want "guarded by c.mu"
}

// newCounter initializes a value it allocated itself, before any other
// goroutine can hold it: clean.
func newCounter() *counter {
	c := &counter{}
	c.n = 1
	return c
}
