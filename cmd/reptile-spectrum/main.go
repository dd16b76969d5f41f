// Command reptile-spectrum builds and inspects spectrum files, so the
// construction cost is paid once per dataset:
//
//	reptile-spectrum build -fasta ds.fa -qual ds.qual -out ds   # ds.r0.rsnap
//	reptile-spectrum info -in ds.r0.rsnap
//
// The file is a single-rank RSNP snapshot (internal/snapshot) holding the
// frozen k-mer and tile stores, directly loadable by reptile-correct
// -snapshot ds at np=1.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"reptile/internal/fastaio"
	"reptile/internal/reptile"
	"reptile/internal/snapshot"
	"reptile/internal/spectrum"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		build(os.Args[2:])
	case "info":
		info(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: reptile-spectrum build|info [flags]")
	os.Exit(2)
}

func build(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	fasta := fs.String("fasta", "", "input fasta file")
	qual := fs.String("qual", "", "input quality file")
	out := fs.String("out", "spectrum", "output prefix (<out>.r0.rsnap)")
	k := fs.Int("k", 12, "k-mer length")
	overlap := fs.Int("overlap", 4, "tile overlap")
	kmerThr := fs.Uint("kmer-threshold", 6, "k-mer solidity threshold")
	tileThr := fs.Uint("tile-threshold", 3, "tile solidity threshold")
	fs.Parse(args)
	if *fasta == "" || *qual == "" {
		fmt.Fprintln(os.Stderr, "reptile-spectrum build: -fasta and -qual are required")
		os.Exit(2)
	}

	batch, err := fastaio.ReadShard(*fasta, *qual, 0, 1)
	if err != nil {
		fatal(err)
	}
	cfg := reptile.Default()
	cfg.Spec.K = *k
	cfg.Spec.Overlap = *overlap
	cfg.KmerThreshold = uint32(*kmerThr)
	cfg.TileThreshold = uint32(*tileThr)
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	hk, ht := reptile.BuildSpectra(batch, cfg)
	kmers, tiles := spectrum.Freeze(hk), spectrum.Freeze(ht)
	p := snapshot.Params{
		K:             cfg.Spec.K,
		Overlap:       cfg.Spec.Overlap,
		KmerThreshold: cfg.KmerThreshold,
		TileThreshold: cfg.TileThreshold,
		NP:            1,
		Rank:          0,
	}
	path := snapshot.RankFile(*out, 0)
	n, err := snapshot.Write(path, p, kmers, tiles)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d kmers, %d tiles, %d bytes\n", path, kmers.Len(), tiles.Len(), n)
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "snapshot file (<prefix>.r<rank>.rsnap)")
	top := fs.Int("top", 5, "show the N highest-count entries of each store")
	fs.Parse(args)
	if *in == "" {
		fmt.Fprintln(os.Stderr, "reptile-spectrum info: -in is required")
		os.Exit(2)
	}
	// The full checksum-verified load: every figure below is read from the
	// frozen stores themselves.
	p, kmers, tiles, n, err := snapshot.Read(*in)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("format       RSNP v%d (frozen spectrum snapshot)\n", snapshot.Version)
	fmt.Printf("rank         %d of %d\n", p.Rank, p.NP)
	fmt.Printf("k / overlap  %d / %d\n", p.K, p.Overlap)
	fmt.Printf("thresholds   kmer=%d tile=%d\n", p.KmerThreshold, p.TileThreshold)
	if total := kmers.Len() + tiles.Len(); total > 0 {
		fmt.Printf("bytes        %d (%.1f per entry)\n", n, float64(n)/float64(total))
	} else {
		fmt.Printf("bytes        %d\n", n)
	}
	storeInfo("kmers", kmers, *top)
	storeInfo("tiles", tiles, *top)
}

// storeInfo prints one frozen store's entry count, count total, mean and
// max count, and its top highest-count entries.
func storeInfo(name string, s *spectrum.PackedStore, top int) {
	entries := s.Entries()
	var total uint64
	var maxCount uint32
	for _, e := range entries {
		total += uint64(e.Count)
		maxCount = max(maxCount, e.Count)
	}
	fmt.Printf("%s\n", name)
	fmt.Printf("  entries      %d\n", len(entries))
	fmt.Printf("  total count  %d\n", total)
	if len(entries) == 0 {
		return
	}
	fmt.Printf("  mean count   %.1f\n", float64(total)/float64(len(entries)))
	fmt.Printf("  max count    %d\n", maxCount)
	// Entries come in ID order, so the stable sort breaks count ties by ID.
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Count > entries[j].Count })
	for _, e := range entries[:min(max(top, 0), len(entries))] {
		fmt.Printf("    id=%#016x count=%d\n", uint64(e.ID), e.Count)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "reptile-spectrum: %v\n", err)
	os.Exit(1)
}
