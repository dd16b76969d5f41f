package main

import (
	"errors"
	"testing"

	"reptile/internal/core"
	"reptile/internal/dna"
	"reptile/internal/reads"
)

var errDisk = errors.New("disk read failed")

// failingSource hands every rank a reader that yields one batch and then
// fails, the shape of an input file that goes bad part-way through.
type failingSource struct{ closed int }

func (s *failingSource) Open(rank, np, chunk int) (core.BatchReader, error) {
	return &failingReader{src: s}, nil
}

type failingReader struct {
	src   *failingSource
	calls int
}

func (r *failingReader) NextBatch() ([]reads.Read, error) {
	r.calls++
	if r.calls == 1 {
		return []reads.Read{{Seq: 1, Base: []dna.Base{0, 1}, Qual: []byte{30, 30}}}, nil
	}
	return nil, errDisk
}

func (r *failingReader) Close() error {
	r.src.closed++
	return nil
}

// TestReadWholeInputReportsReadFailure pins that a read error part-way
// through a shard is returned, not mistaken for the end of the input: the
// corrections diff must never run against truncated originals.
func TestReadWholeInputReportsReadFailure(t *testing.T) {
	src := &failingSource{}
	all, err := readWholeInput(src, 2)
	if !errors.Is(err, errDisk) {
		t.Fatalf("readWholeInput returned %d reads and error %v; want the reader's failure", len(all), err)
	}
	if src.closed != 1 {
		t.Errorf("%d readers closed; want the failed one closed", src.closed)
	}
}

// TestReadWholeInputDrainsEveryShard pins the clean path: io.EOF ends each
// shard and every rank's reads are collected.
func TestReadWholeInputDrainsEveryShard(t *testing.T) {
	var rs []reads.Read
	for i := 1; i <= 5; i++ {
		rs = append(rs, reads.Read{Seq: int64(i), Base: []dna.Base{0, 1, 2}, Qual: []byte{30, 30, 30}})
	}
	all, err := readWholeInput(&core.MemorySource{Reads: rs}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(rs) {
		t.Fatalf("read %d reads, want %d", len(all), len(rs))
	}
}
