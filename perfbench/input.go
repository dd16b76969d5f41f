package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"reptile/internal/core"
	"reptile/internal/dna"
	"reptile/internal/fastaio"
	"reptile/internal/genome"
	"reptile/internal/reads"
	"reptile/internal/reptile"
)

// input is one workload's seeded read set, the engine options every job
// runs with, and the sequential reference every corrected read is checked
// against.
type input struct {
	ds   *genome.Dataset
	opts core.Options
	// ref[i] is read i+1 as sequential reptile.CorrectDataset corrects it.
	ref []reads.Read
	// fasta and qual hold the reads on disk for the streaming workload.
	fasta, qual string
}

// makeInput generates the workload's reads from the seed and computes the
// reference. The seed replaces the preset's own, so the program only ever
// sees reads the seed determines.
func makeInput(w *workload, seed int64) (*input, error) {
	p := w.preset.Scaled(w.scale)
	p.Seed = seed
	ds := p.Build()
	opts := core.Options{
		Config:      reptile.ForCoverage(ds.Coverage()),
		Heuristics:  core.Heuristics{LookupBatch: w.lookupBatch, Workers: w.workers},
		LoadBalance: true,
	}
	ref, _, err := reptile.CorrectDataset(ds.Reads, opts.Config)
	if err != nil {
		return nil, fmt.Errorf("sequential reference: %w", err)
	}
	for i := range ref {
		if ref[i].Seq != int64(i+1) {
			return nil, fmt.Errorf("reference read %d has sequence number %d", i+1, ref[i].Seq)
		}
	}
	return &input{ds: ds, opts: opts, ref: ref}, nil
}

// checkRead compares one corrected read with the reference.
func (in *input) checkRead(r *reads.Read) error {
	if r.Seq < 1 || r.Seq > int64(len(in.ref)) {
		return fmt.Errorf("corrected read has unknown sequence number %d", r.Seq)
	}
	if !slices.Equal(r.Base, in.ref[r.Seq-1].Base) {
		return fmt.Errorf("read %d differs from the sequential reference", r.Seq)
	}
	return nil
}

// checkAll requires every input read exactly once, each equal to the
// reference; order does not matter.
func (in *input) checkAll(rs []reads.Read) error {
	if len(rs) != len(in.ref) {
		return fmt.Errorf("%d corrected reads for %d input reads", len(rs), len(in.ref))
	}
	seen := make([]bool, len(in.ref))
	for i := range rs {
		if err := in.checkRead(&rs[i]); err != nil {
			return err
		}
		if seen[rs[i].Seq-1] {
			return fmt.Errorf("read %d emitted twice", rs[i].Seq)
		}
		seen[rs[i].Seq-1] = true
	}
	return nil
}

// gain scores corrected reads against the simulation's ground truth.
func (in *input) gain(rs []reads.Read) (float64, error) {
	acc, err := in.ds.Evaluate(rs)
	if err != nil {
		return 0, err
	}
	return acc.Gain(), nil
}

// readSinkFiles loads the reads a core.FileSink wrote (in completion
// order) back into memory.
func readSinkFiles(fastaPath, qualPath string) ([]reads.Read, error) {
	bases, err := scanRecords(fastaPath)
	if err != nil {
		return nil, err
	}
	quals, err := scanRecords(qualPath)
	if err != nil {
		return nil, err
	}
	if len(bases) != len(quals) {
		return nil, fmt.Errorf("sink wrote %d fasta and %d quality records", len(bases), len(quals))
	}
	out := make([]reads.Read, len(bases))
	for i, rec := range bases {
		if quals[i].Seq != rec.Seq {
			return nil, fmt.Errorf("sink record %d: fasta sequence %d paired with quality sequence %d", i, rec.Seq, quals[i].Seq)
		}
		b, err := dna.Encode(rec.Body)
		if err != nil {
			return nil, fmt.Errorf("sink read %d: %w", rec.Seq, err)
		}
		out[i] = reads.Read{Seq: rec.Seq, Base: b}
	}
	return out, nil
}

func scanRecords(path string) ([]fastaio.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := fastaio.NewScanner(bufio.NewReaderSize(f, 1<<20))
	var out []fastaio.Record
	for {
		rec, err := sc.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rec.Body = append([]byte(nil), rec.Body...)
		out = append(out, rec)
	}
}
