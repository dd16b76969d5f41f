// Package fixture exercises the freezeguard analyzer: true positives on
// frozen-field writes outside the build phase, clean passes on build-phase
// functions, reads, and unannotated fields.
package fixture

// store stands in for a spectrum store with mutating methods.
type store struct{ n int }

func (s *store) Add(id uint64, c uint32) { s.n++ }
func (s *store) Set(id uint64, c uint32) { s.n++ }
func (s *store) Clear()                  { s.n = 0 }
func (s *store) Prune(min uint32)        {}
func (s *store) Release()                {}
func (s *store) Count(id uint64) (uint32, bool) {
	return 0, false
}

type engine struct {
	// frozen: packed at the end of the build phase
	owned *store
	// scratch is mutable for the whole run.
	scratch *store
}

// finish is the declared freeze point: assignments and mutations are its job.
//
// reptile-lint:build
func (e *engine) finish() {
	e.owned = &store{}
	e.owned.Prune(2)
}

// lookup only reads the frozen store: clean.
func (e *engine) lookup(id uint64) (uint32, bool) {
	return e.owned.Count(id)
}

// reassign replaces the frozen store outside the build phase.
func (e *engine) reassign() {
	e.owned = &store{} // want "engine.owned is frozen"
}

// mutate calls a store mutator on the frozen field outside the build phase.
func (e *engine) mutate(id uint64) {
	e.owned.Add(id, 1) // want "calls Add on it"
}

// release frees the frozen store outside the build phase.
func (e *engine) release() {
	e.owned.Release() // want "calls Release on it"
}

// cacheWrite mutates the unannotated field: clean.
func (e *engine) cacheWrite(id uint64) {
	e.scratch.Set(id, 1)
}

// viaParam shows the check also applies to plain functions via parameters.
func viaParam(e *engine) {
	e.owned.Clear() // want "calls Clear on it"
}

// allowed demonstrates per-line suppression.
func (e *engine) allowed() {
	e.owned = nil // reptile-lint:allow freezeguard teardown after the run
}

// viaLocal mutates the frozen store through a local alias of the engine.
func viaLocal(es []*engine) {
	e := es[0]
	e.owned.Delete(1) // want "calls Delete on it"
}

func (s *store) Delete(id uint64) {}
