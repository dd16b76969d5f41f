// Command perfbench is the repository's benchmark. It drives the program
// only through its public entry points and the counters it already
// exports, on two seeded workloads (batch-proc and stream-files),
// checks every corrected read against a sequential reference, and prints
// the end-to-end metrics — or, with --trace 1, the per-layer metrics, the
// per-read ledger and a span file.
//
//	bash perfbench/run.sh --workload batch-proc --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh compare old.jsonl new.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every run also appends a record
// stamped with its provenance to a JSON-lines file for compare mode.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metricOut is one metric as printed.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// provenance says what produced a result, so results compare like with
// like.
type provenance struct {
	GitRevision string         `json:"git_revision"`
	GitDirty    string         `json:"git_dirty"`
	GoVersion   string         `json:"go_version"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NumCPU      int            `json:"nproc"`
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Seconds     float64        `json:"seconds"`
	Trace       bool           `json:"trace"`
	Params      map[string]any `json:"params"`
	Time        string         `json:"time"`
}

// record is one run as appended to the results file.
type record struct {
	Provenance provenance `json:"provenance"`
	Result     result     `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	code, err := benchMain(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// outDir, relative to the checkout root, holds the scratch inputs, span
// files and results; run.sh builds into it too and .gitignore names it.
const outDir = ".bench_build"

func benchMain(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: batch-proc or stream-files")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 40, "measured window in seconds")
	traceOn := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	recordPath := fs.String("record", filepath.Join(outDir, "results.jsonl"), "results file to append to (\"-\" disables)")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return 2, err
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		return 2, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	dir, err := workDir(outDir, w, *seed)
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	defs := endToEnd
	if *traceOn == 1 {
		tr, defs = newTracer(), perLayer
	}
	in, o, err := run(w, *seed, *seconds, tr, dir)
	if err != nil {
		return 2, err
	}

	prov := stamp(w, *seed, *seconds, tr != nil)
	prov.Params = w.params(in)
	res := result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok || math.IsNaN(v) {
			return 2, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsInf(v, 0) {
			// A latency made infinite by failed chunks; JSON has no
			// infinity.
			v = math.Copysign(math.MaxFloat64, v)
		}
		res.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}

	pj, err := json.Marshal(prov)
	if err != nil {
		return 2, err
	}
	fmt.Printf("provenance %s\n", pj)
	if tr != nil {
		o.ledger(os.Stdout)
		printSummary(os.Stdout, tr.summarize())
		spans := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
			return 2, err
		}
		if err := tr.write(spans); err != nil {
			return 2, err
		}
		fmt.Printf("spans written to %s\n", spans)
	}
	for _, d := range defs {
		fmt.Printf("%-40s %16.6f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	if *recordPath != "-" {
		if err := appendRecord(*recordPath, record{Provenance: prov, Result: res}); err != nil {
			return 2, err
		}
	}
	last, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	fmt.Println(string(last))
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d operations failed or differed from the reference", res.Failed, res.Attempted)
	}
	return 0, nil
}

// stamp records the build and host a result came from. The revision comes
// from the VCS stamp go build embeds; a checkout without git history
// reports "unknown".
func stamp(w *workload, seed int64, seconds float64, traced bool) provenance {
	p := provenance{
		GitRevision: "unknown", GitDirty: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitRevision = s.Value
			case "vcs.modified":
				p.GitDirty = s.Value
			}
		}
	}
	return p
}

func appendRecord(path string, r record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
