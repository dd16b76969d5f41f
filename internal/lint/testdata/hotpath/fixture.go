// Package fixture exercises the hotpath analyzer: per-iteration heap
// allocations inside annotated functions and their module-local callees.
package fixture

import "fmt"

type item struct {
	id uint64
	n  int
}

// process is the annotated hot loop; every allocation class fires once.
//
// reptile-lint:hotpath
func process(items []item) int {
	total := 0
	for _, it := range items {
		buf := make([]byte, 8) // want "make in a loop allocates every iteration"
		_ = buf
		p := &item{id: it.id} // want "&item literal allocates every loop iteration"
		total += p.n
		s := string(encode(it.id)) // want "string conversion in a loop copies and allocates"
		_ = s
		fmt.Println(it.id)              // want "fmt.Println in a loop boxes its arguments"
		f := func() int { return it.n } // want "func literal in a loop allocates a closure"
		total += f()
	}
	var out []int
	for _, it := range items {
		out = append(out, it.n) // want "append to out grows from zero capacity"
	}
	helper(items)
	return total + len(out)
}

// helper is not annotated: it is checked because process (hotpath) calls it.
func helper(items []item) {
	for range items {
		_ = new(item) // want "hot path of hotpath.process"
	}
}

// box has an interface parameter, so every hot-loop call to it boxes.
func box(v any) {}

// boxes passes a concrete value to an interface parameter per iteration.
//
// reptile-lint:hotpath
func boxes(items []item) {
	for _, it := range items {
		box(it.n) // want "boxes this argument into an interface parameter"
	}
}

// encode is on the hot path via process but stays allocation-free: the
// write loop touches only a stack array.
func encode(id uint64) []byte {
	var b [8]byte
	for i := range b {
		b[i] = byte(id >> (8 * uint(i)))
	}
	return b[:]
}

// cold repeats process's allocations without an annotation: no findings.
func cold(items []item) int {
	total := 0
	for _, it := range items {
		p := &item{id: it.id}
		total += p.n
	}
	return total
}

// hoisted shows the clean pattern: buffers and closures built once, append
// into preallocated capacity, the loop body monomorphic.
//
// reptile-lint:hotpath
func hoisted(items []item) int {
	out := make([]int, 0, len(items))
	add := func(n int) { out = append(out, n) }
	for _, it := range items {
		add(it.n)
	}
	return len(out)
}

// launcher fans out one goroutine per worker: a go/defer closure in a loop
// is the fan-out idiom, not per-iteration garbage, so only its body is held
// to the loop rules.
//
// reptile-lint:hotpath
func launcher(items []item, nw int) {
	for w := 0; w < nw; w++ {
		go func(w int) {
			for _, it := range items {
				sink(w + it.n)
			}
		}(w)
	}
}

func sink(int) {}

type grower struct{ n int }

// grow is on the hot path of viaMap only.
func (g *grower) grow(k int) {
	for i := 0; i < k; i++ {
		buf := make([]int, 1) // want "hot path of hotpath.viaMap"
		g.n += len(buf)
	}
}

// viaMap reaches grow through a comma-ok map read, a binding whose type
// only the checker knows.
//
// reptile-lint:hotpath
func viaMap(gs map[int]*grower, k int) {
	if g, ok := gs[k]; ok {
		g.grow(k)
	}
}
