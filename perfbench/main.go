// Command perfbench is the repository's benchmark. It drives the
// reduction workflow and the mrserve serving path through the public
// functions of their layers, checks every output against computations of
// its own, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload reduce --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics of BENCHMARK.json, measured with
// the benchmark's span recording off. --trace 1 is the separate traced run:
// it records a span around every call into a layer, writes the spans and a
// per-layer summary under .bench_build/perfbench/, and prints the per-layer
// metrics. See README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// size is the edge of the cubic inputs: 128 in every measured run,
	// 32 in the smoke test.
	size int
	// outDir receives the traced run's span file and layer summary.
	outDir string
	// workDir holds the served containers; removed when the run ends.
	workDir string
}

// run is the state every workload fills in.
type run struct {
	cfg       config
	tr        *tracer
	attempted int64
	failed    int64
	// faults lists failed checks; any entry makes the result incorrect.
	faults []string
	// failures lists the first failed operations' errors. A failed
	// operation counts in failed and leaves correct alone.
	failures []string
	// e2e and layers are the two metric sets of BENCHMARK.json.
	e2e    map[string]metric
	layers map[string]metric
	// detail holds per-class figures that only some workloads have; they
	// go to standard error, not into the result line.
	detail map[string]metric
}

func (r *run) fault(format string, args ...any) {
	if len(r.faults) < 20 {
		r.faults = append(r.faults, fmt.Sprintf(format, args...))
	}
}

// failure counts one failed operation.
func (r *run) failure(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) setE2E(name, unit string, v float64)    { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name, unit string, v float64)  { r.layers[name] = metric{v, unit} }
func (r *run) setDetail(name, unit string, v float64) { r.detail[name] = metric{v, unit} }

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"reduce": runReduce,
	"refine": runRefine,
	"browse": runBrowse,
	"sweep":  runSweep,
}

func main() {
	cfg := config{size: 128}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: reduce, refine, browse or sweep")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for traced-run output")
	flag.Parse()
	cfg.trace = trace == 1
	res, err := execute(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload and assembles its result line; log receives
// the human-readable detail.
func execute(cfg config, log io.Writer) (*result, error) {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want reduce, refine, browse or sweep)", cfg.workload)
	}
	if cfg.size < 32 || cfg.size%32 != 0 {
		return nil, fmt.Errorf("size %d is not a positive multiple of 32", cfg.size)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.outDir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfg.workDir = work

	r := &run{
		cfg:    cfg,
		e2e:    map[string]metric{},
		layers: map[string]metric{},
		detail: map[string]metric{},
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	if err := drive(r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation completed in %gs", cfg.workload, cfg.seconds)
	}
	r.setE2E("peak_rss_mb", "MB", peakRSSMB())

	for _, f := range r.failures {
		fmt.Fprintln(log, "OPERATION FAILED:", f)
	}
	for _, f := range r.faults {
		fmt.Fprintln(log, "CHECK FAILED:", f)
	}
	printDetail(log, cfg.workload, r)
	res := &result{Correct: len(r.faults) == 0, Attempted: r.attempted, Failed: r.failed}
	if cfg.trace {
		res.Metrics = r.layers
		if err := r.tr.write(cfg, r.layers); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = r.e2e
	}
	return res, nil
}

func printDetail(log io.Writer, workload string, r *run) {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s: attempted %d, failed %d\n", workload, r.attempted, r.failed)
	for _, set := range []map[string]metric{r.e2e, r.detail} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "  %-28s %14.4f %s\n", n, set[n].Value, set[n].Unit)
		}
	}
	fmt.Fprint(log, b.String())
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// deadline is when the measured phase of a run ends.
func deadline(cfg config) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}
