// Command bench is the repository's benchmark: six named workloads,
// each run in its own process, each checking its own outputs and
// printing every metric by name with its unit. See README.md beside
// this file for why each workload exists and how to read the numbers.
//
//	go run ./bench -workload small-direct -seed 7
//	go run ./bench -workload small-direct -seed 7 -trace 1
//	go run ./bench -all
//	go run ./bench -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/models"
)

// spec declares one workload. The table below is the whole list.
type spec struct {
	name string
	why  string

	train     bool // the training workload; everything below is serving
	large     bool // bigfac.json + Gaussian vectors, else OOI + small CKAT
	routed    bool // router over two backends
	ingest    bool // live ledger, POST /v1/ingest in the mix
	noANN     bool
	cacheSize int    // 0 keeps the server default
	mode      string // stamped on every ranking request; "" keeps server defaults
	mix       [numKinds]int
	rateQPS   float64 // open-phase arrival rate
	limitMS   float64 // open-phase p95 must stay within this
}

var readMix = [numKinds]int{opRecommend: 45, opBatch: 10, opSimilar: 20, opNearest: 15, opAnalogy: 10}

var specs = []spec{
	{
		name: "train-ckat-ooi", train: true,
		why: "the paper's model at the paper's size: tensor, autograd, optim, parallel and the sampler do all the work, the serving stack none",
	},
	{
		name: "small-direct", mix: readMix, rateQPS: 4000, limitMS: 20,
		why: "scoring 7xx items costs microseconds, so per-request fixed cost (client, net/http, serve middleware, obs) is nearly all of the latency",
	},
	{
		name: "small-routed", routed: true, mix: readMix, rateQPS: 2000, limitMS: 20,
		why: "small-direct behind the router over two backends: every other layer is identical, so the pair isolates the hop",
	},
	{
		name: "large-exact", large: true, noANN: true, cacheSize: 128, mode: "exact",
		mix: [numKinds]int{opRecommend: 100}, rateQPS: 600, limitMS: 40,
		why: "40,000 items, 2,000 users against a 128-entry score cache: catalog-wide scoring, mask and top-K dominate, ann is bypassed",
	},
	{
		name: "large-ann", large: true, cacheSize: 128, mode: "ann",
		mix: [numKinds]int{opRecommend: 100}, rateQPS: 600, limitMS: 40,
		why: "the same catalog answered from the per-shard HNSW index: ann does the work and the score cache none",
	},
	{
		name: "small-rw", ingest: true, rateQPS: 2000, limitMS: 20,
		mix: [numKinds]int{opRecommend: 135, opBatch: 30, opSimilar: 60, opNearest: 45, opAnalogy: 30, opIngest: 100},
		why: "a quarter of the ops are durable ingests of fresh pairs beside the small-direct reads: ledger fsync, overlay writes and the CSR hot-swap",
	},
}

// smokeSeconds is the -smoke run length: enough for every phase to do
// some work, short enough for the self-test to sit inside tier-1.
const smokeSeconds = 0.6

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// run is one workload execution in this process.
type run struct {
	spec    *spec
	seed    int64
	seconds float64
	smoke   bool
	traced  bool
	scratch string // where the run may write

	trainEvents []models.ProgressEvent // the serving fixtures' set-up training

	tr     *tracer // nil unless traced
	replay *replay // the traced serving run's per-op spans, for the budget
	stages map[string]time.Duration
	res    *result
}

// stamp records where and how a result was measured.
type stamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Clients    int     `json:"clients"`
	WarmupS    float64 `json:"warmup_s"`
	ClosedS    float64 `json:"closed_s"`
	OpenS      float64 `json:"open_s"`
	RateQPS    float64 `json:"rate_qps"`
	Smoke      bool    `json:"smoke"`
	Traced     bool    `json:"traced"`
	When       string  `json:"when"`
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports; -compare reads files of these.
type result struct {
	Workload  string               `json:"workload"`
	Stamp     stamp                `json:"stamp"`
	Claim     *string              `json:"claim"` // this benchmark claims no gain
	Correct   bool                 `json:"correct"`
	Failures  []string             `json:"failures,omitempty"` // output checks that failed
	Invalid   []string             `json:"invalid,omitempty"`  // reasons the harness, not the program, set a number
	Attempted int                  `json:"ops_attempted"`
	Failed    int                  `json:"ops_failed"`
	Samples   map[string]int       `json:"samples"` // sample count behind each timing
	EndToEnd  map[string]metricVal `json:"end_to_end"`
	PerLayer  map[string]metricVal `json:"per_layer,omitempty"`
}

func (r *run) failf(format string, args ...any) {
	r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
}

func (r *run) invalidf(format string, args ...any) {
	r.res.Invalid = append(r.res.Invalid, fmt.Sprintf(format, args...))
}

func (r *run) e2e(name string, v float64) {
	r.res.EndToEnd[name] = metricVal{Value: v, Unit: unitOf(name)}
}

func (r *run) layer(name string, v float64) {
	r.res.PerLayer[name] = metricVal{Value: v, Unit: unitOf(name)}
}

func newStamp(r *run) stamp {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return stamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: strings.TrimSpace(string(kernel)), Commit: commit, Seed: r.seed, Clients: numClients(),
		Smoke: r.smoke, Traced: r.traced, When: time.Now().UTC().Format(time.RFC3339),
	}
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 7, "seed for catalog, trace, embeddings, op stream and arrival schedule")
	seconds := flag.Float64("seconds", 12, "measured seconds per run: half closed loop, half open loop")
	traced := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and the layer budget")
	all := flag.Bool("all", false, "run every workload, each in a child process")
	smoke := flag.Bool("smoke", false, "self-test sizes: 0.3 s phases, tiny models, 2,000-item large fixture, no timing checks")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.jsonl b.jsonl")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json for the declared workloads and metrics")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for result files, traces and scratch data")
	flag.Parse()

	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.jsonl b.jsonl")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
	case *all:
		os.Exit(runAll(*seed, *seconds, *traced, *smoke, *out))
	default:
		sp := findSpec(*workload)
		if sp == nil {
			fatalf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
		}
		if *smoke {
			*seconds = smokeSeconds
		}
		r := &run{spec: sp, seed: *seed, seconds: *seconds, smoke: *smoke, traced: *traced == 1}
		os.Exit(r.execute(*out))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i := range specs {
		names[i] = specs[i].name
	}
	return names
}

// runAll runs each workload as a child process of this binary, so
// every workload gets its own heap, caches and peak-RSS reading.
func runAll(seed int64, seconds float64, traced int, smoke bool, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	code := 0
	for _, name := range workloadNames() {
		args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(traced), "-out", out}
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// execute runs the workload, prints the report, appends the result to
// <out>/results.jsonl and returns the process exit code.
func (r *run) execute(out string) int {
	r.scratch = filepath.Join(out, fmt.Sprintf("%s.%d", r.spec.name, os.Getpid()))
	if err := os.MkdirAll(r.scratch, 0o755); err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(r.scratch)
	r.stages = make(map[string]time.Duration)
	r.res = &result{
		Workload: r.spec.name, Samples: map[string]int{},
		EndToEnd: map[string]metricVal{}, PerLayer: map[string]metricVal{},
	}
	if r.traced {
		r.tr = newTracer()
	}
	r.res.Stamp = newStamp(r)

	var err error
	if r.spec.train {
		err = r.runTrain()
	} else {
		err = r.runServing()
	}
	if err != nil {
		r.failf("run aborted: %v", err)
	}
	r.finish(out)

	r.res.Correct = len(r.res.Failures) == 0 && len(r.res.Invalid) == 0 && r.res.Failed == 0
	r.report(os.Stdout)
	if werr := appendResult(filepath.Join(out, "results.jsonl"), r.res); werr != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", werr)
	}
	if err != nil || r.res.Attempted == 0 {
		// Nothing was measured: no result line, so nobody mistakes the
		// zeros for numbers.
		return 1
	}
	r.printContractLine(os.Stdout)
	if !r.res.Correct {
		return 1
	}
	return 0
}

// finish closes a traced run's per-layer set — every declared metric
// the run did not produce reads 0: the layer is not on this workload's
// path — and writes its spans out.
func (r *run) finish(out string) {
	if r.traced {
		r.layer("rss_peak_mb", procStatusKB("VmHWM")/1024)
		for _, m := range perLayer {
			if _, ok := r.res.PerLayer[m.name]; !ok {
				r.layer(m.name, 0)
			}
		}
		if err := r.tr.write(filepath.Join(out, r.spec.name+".trace.json")); err != nil {
			fmt.Fprintf(os.Stderr, "bench: write trace: %v\n", err)
		}
	} else {
		r.res.PerLayer = nil
	}
}

func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints every metric by name with its unit, end to end first.
func (r *run) report(w *os.File) {
	res := r.res
	st := res.Stamp
	fmt.Fprintf(w, "== %s  seed=%d  %s  nproc=%d gomaxprocs=%d clients=%d  kernel=%s  commit=%s\n",
		res.Workload, st.Seed, st.GoVersion, st.NProc, st.GOMAXPROCS, st.Clients, st.Kernel, st.Commit)
	fmt.Fprintf(w, "   phases: warm-up %.1fs, closed %.1fs, open %.1fs at %.0f qps   ops_attempted=%d ops_failed=%d\n",
		st.WarmupS, st.ClosedS, st.OpenS, st.RateQPS, res.Attempted, res.Failed)
	printMetrics(w, "end to end", res.EndToEnd, res.Samples)
	if r.traced {
		printMetrics(w, "per layer", res.PerLayer, res.Samples)
		r.printBudget(w)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", f)
	}
	for _, f := range res.Invalid {
		fmt.Fprintf(w, "INVALID RUN: %s\n", f)
	}
}

func printMetrics(w *os.File, title string, ms map[string]metricVal, samples map[string]int) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "-- %s\n", title)
	for _, n := range names {
		line := fmt.Sprintf("   %-34s %14.6g %s", n, ms[n].Value, ms[n].Unit)
		if c, ok := samples[n]; ok {
			line += fmt.Sprintf("   (n=%d)", c)
		}
		fmt.Fprintln(w, line)
	}
}

// printContractLine prints the one-line JSON object the benchmark
// driver reads: end-to-end metrics on a plain run, per-layer metrics on
// a traced one.
func (r *run) printContractLine(w *os.File) {
	metrics := r.res.EndToEnd
	if r.traced {
		metrics = r.res.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{r.res.Correct, r.res.Attempted, r.res.Failed, metrics})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(w, "%s\n", line)
}
