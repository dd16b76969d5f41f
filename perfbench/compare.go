package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchFile is the part of BENCHMARK.json compare mode reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain prints, for each workload and end-to-end metric, the median
// and quartiles of an old and a new result set with a verdict under the
// bounds in BENCHMARK.json, then the per-layer medians of the traced runs
// sorted by how far they moved.
func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: compare OLD.jsonl NEW.jsonl (run from the checkout root)")
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	oldRecs, err := loadRecords(args[0])
	if err != nil {
		return err
	}
	newRecs, err := loadRecords(args[1])
	if err != nil {
		return err
	}
	oldSet, newSet := groupRecords(oldRecs), groupRecords(newRecs)
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.name)
		oe, ne := oldSet[key{w.name, false}], newSet[key{w.name, false}]
		fmt.Printf("%-20s %8s %30s %30s  %s\n", "metric", "bound", "old q1/median/q3", "new q1/median/q3", "verdict")
		for _, m := range bf.EndToEnd {
			ov, nv := oe[m.Name], ne[m.Name]
			if len(ov) == 0 || len(nv) == 0 {
				fmt.Printf("%-20s %8.3f %30s %30s  no data (%d old, %d new runs)\n", m.Name, m.Bound, "-", "-", len(ov), len(nv))
				continue
			}
			fmt.Printf("%-20s %8.3f %30s %30s  %s\n", m.Name, m.Bound, quartileText(ov), quartileText(nv), verdict(ov, nv, m.Better == "higher", m.Bound))
		}
		ol, nl := oldSet[key{w.name, true}], newSet[key{w.name, true}]
		if len(ol) == 0 || len(nl) == 0 {
			continue
		}
		fmt.Printf("per-layer medians (traced runs), largest moves first\n")
		type delta struct {
			name     string
			old, new float64
			rel      float64
		}
		var ds []delta
		for _, d := range perLayer {
			o, n := median(ol[d.Name]), median(nl[d.Name])
			ds = append(ds, delta{d.Name, o, n, relChange(o, n)})
		}
		sort.SliceStable(ds, func(i, j int) bool { return math.Abs(ds[i].rel) > math.Abs(ds[j].rel) })
		for _, d := range ds {
			fmt.Printf("  %-40s %14.4f -> %14.4f  %+8.1f%%\n", d.name, d.old, d.new, 100*d.rel)
		}
	}
	return nil
}

type key struct {
	workload string
	traced   bool
}

// groupRecords collects each metric's values per workload and trace mode.
func groupRecords(recs []record) map[key]map[string][]float64 {
	out := map[key]map[string][]float64{}
	for _, r := range recs {
		k := key{r.Provenance.Workload, r.Provenance.Trace}
		if out[k] == nil {
			out[k] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[k][name] = append(out[k][name], m.Value)
		}
	}
	return out
}

func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	rd := bufio.NewReader(f)
	for line := 1; ; line++ {
		b, err := rd.ReadBytes('\n')
		if len(b) > 0 {
			var r record
			if jerr := json.Unmarshal(b, &r); jerr != nil {
				return nil, fmt.Errorf("%s:%d: %w", path, line, jerr)
			}
			out = append(out, r)
		}
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

func quartileText(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g/%.4g/%.4g", q1, q2, q3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(q2))
}

// relChange is (new-old)/|old|.
func relChange(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (new - old) / math.Abs(old)
}

// verdict applies the benchmark's rule: worse when the new median is worse
// than the old by more than the bound; better when it is better by more
// than the old runs' own spread; unresolved when either side spreads wider
// than the bound and the runs do not separate completely; otherwise the
// same within the bound.
func verdict(old, new []float64, higherIsBetter bool, bound float64) string {
	gain := relChange(median(old), median(new))
	if !higherIsBetter {
		gain = -gain
	}
	sep := separated(old, new, higherIsBetter)
	noisy := spread(old) > bound || spread(new) > bound
	switch {
	case noisy && sep == 0:
		return fmt.Sprintf("unresolved (%+.1f%%, spread %.1f%%/%.1f%%)", 100*gain, 100*spread(old), 100*spread(new))
	case gain < -bound || sep < 0 && noisy:
		return fmt.Sprintf("worse (%+.1f%%)", 100*gain)
	case gain > spread(old) && gain > 0 || sep > 0 && noisy:
		return fmt.Sprintf("better (%+.1f%%)", 100*gain)
	default:
		return fmt.Sprintf("same within bound (%+.1f%%)", 100*gain)
	}
}

// separated is 1 when every new run beats every old run, -1 when every old
// run beats every new one, and 0 otherwise.
func separated(old, new []float64, higherIsBetter bool) int {
	so, sn := sortedCopy(old), sortedCopy(new)
	lo, hi := sn[0] > so[len(so)-1], sn[len(sn)-1] < so[0]
	if !higherIsBetter {
		lo, hi = hi, lo
	}
	switch {
	case lo:
		return 1
	case hi:
		return -1
	}
	return 0
}
