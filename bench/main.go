// Command bench is the s3crm repository benchmark. It generates one
// workload's inputs from a seed, drives the program from outside — through
// the public s3crm API, the exported functions of its internal packages and
// an s3crmd child process — checks every output, and prints its metrics.
//
//	bash bench/run.sh --workload forward-solve --seed 1 --seconds 28 --trace 0
//
// run.sh builds this command and s3crmd from the checkout, then runs it from
// the checkout root. Lines starting with "#" are the runner header, lines
// starting with "metric" name every figure with its unit and sample count,
// and the last line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end set, with
// --trace 1 the per-layer set (see README.md beside this file).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are the
// ones BENCHMARK.json declares (checked by TestMetricListsMatchManifest).
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"redemption", "ratio"},
	{"peak_rss_mib", "MiB"},
}

var perLayerDefs = []metricDef{
	{"gio.load_ms", "ms"},
	{"campaign.new_ms", "ms"},
	{"core.pivot_ms", "ms"},
	{"core.id_ms", "ms"},
	{"core.gpi_ms", "ms"},
	{"core.scm_ms", "ms"},
	{"core.select_ms", "ms"},
	{"core.final_ms", "ms"},
	{"core.candidate_evals", "count"},
	{"core.evaluations", "count"},
	{"sketch.build_ms", "ms"},
	{"sketch.select_ms", "ms"},
	{"sketch.samples", "count"},
	{"sketch.rounds", "count"},
	{"sketch.bound_gap", "ratio"},
	{"sketch.samples_per_s", "1/s"},
	{"diffusion.evaluate_ms", "ms"},
	{"diffusion.fill_ms", "ms"},
	{"diffusion.world_blocks", "count"},
	{"diffusion.rebase_ms", "ms"},
	{"diffusion.delta_ms", "ms"},
	{"churn.apply_ms", "ms"},
	{"churn.resolve_ms", "ms"},
	{"graph.append_ms", "ms"},
	{"churn.snapshots_patched", "count"},
	{"churn.pools_dropped", "count"},
	{"churn.compactions", "count"},
	{"churn.overlay_edges", "count"},
	{"serve.admitted", "count"},
	{"serve.shed", "count"},
	{"serve.degraded", "count"},
	{"serve.overhead_ms", "ms"},
	{"client.late_p99_ms", "ms"},
	{"runtime.alloc_mib", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"proc.cpu_per_wall", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.coverage_min", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"forward-solve": forwardSolve,
	"ssr-solve":     ssrSolve,
	"churn-refresh": churnRefresh,
	"serve-mix":     serveMix,
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // build and scratch directory inside the checkout
	daemon   string // path of the s3crmd binary
}

// value is one metric reading and the number of samples behind it.
type value struct {
	v float64
	n int
}

// run is one benchmark invocation's state and findings.
type run struct {
	opt      options
	dir      string  // this run's generated inputs
	tr       *tracer // nil unless --trace 1
	deadline time.Time

	e2e       map[string]value
	layers    map[string]value
	lines     []string // "metric" lines in the order they were produced
	attempted int
	failed    int
}

// endToEnd records a metric of the gated end-to-end set.
func (r *run) endToEnd(name string, v float64, n int) {
	r.e2e[name] = value{v, n}
	r.show(name, unitOf(endToEndDefs, name), v, n)
}

// layer records a per-layer metric (traced runs print them).
func (r *run) layer(name string, v float64, n int) {
	r.layers[name] = value{v, n}
}

// show prints a figure by name with its unit and sample count, whether or not
// it is part of the JSON result — every run shows the metrics of its op kinds
// this way.
func (r *run) show(name, unit string, v float64, n int) {
	r.lines = append(r.lines, fmt.Sprintf("metric %-22s %14.6f %-8s n=%d", name, v, unit, n))
}

// showTail shows the q-quantile of xs under name when at least minBeyond
// samples lie beyond it, and says why not otherwise.
func (r *run) showTail(name, unit string, xs []float64, q float64) {
	if !tailOK(len(xs), q) {
		r.lines = append(r.lines, fmt.Sprintf("metric %-22s %14s %-8s n=%d (needs %d beyond)", name, "n/a", unit, len(xs), minBeyond))
		return
	}
	r.show(name, unit, quantile(xs, q), len(xs))
}

// op counts one attempted op and, when err is set, one failure.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: op %d failed: %v\n", r.attempted, err)
	}
}

// digestLog opens the run's deployment digest log.
func (r *run) digestLog() (*digestLog, error) {
	id, err := buildID()
	if err != nil {
		return nil, err
	}
	return openDigestLog(mustDir(r.opt.out, "digests"), id, r.opt.workload, r.opt.seed)
}

// fail counts a failure found after its op was counted.
func (r *run) fail(err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "bench: check failed: %v\n", err)
}

// openWindow starts the measurement window; workloads call it after set-up.
func (r *run) openWindow() {
	r.deadline = time.Now().Add(time.Duration(r.opt.seconds * float64(time.Second)))
}

// timeLeft reports whether the measurement window is still open.
func (r *run) timeLeft() bool { return time.Now().Before(r.deadline) }

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return "?"
}

// datasetSeed generates every workload's network and user costs. Each
// workload's network is fixed, as a real dataset would be; the workload seed
// draws everything a user varies between campaigns on it: every op's pinned
// seed, the held-out edges and the request mix. Drawing the network from the
// workload seed too would make each run's figures follow how hard that one
// network happens to be rather than the program.
const datasetSeed = 77

// opSeed derives op i's pinned seed from the workload seed (splitmix64).
func opSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: forward-solve, ssr-solve, churn-refresh, serve-mix")
	flag.Uint64Var(&opt.seed, "seed", 1, "workload seed: inputs and every op's pinned seed derive from it")
	flag.Float64Var(&opt.seconds, "seconds", 28, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.StringVar(&opt.out, "out", ".bench_build", "directory for generated inputs, digests and traces")
	flag.StringVar(&opt.daemon, "daemon", ".bench_build/s3crmd", "s3crmd binary the serve-mix workload starts")
	flag.Parse()
	opt.trace = trace == 1
	fn, ok := workloads[opt.workload]
	if !ok || opt.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need --workload (one of forward-solve, ssr-solve, churn-refresh, serve-mix), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	code, err := benchmark(opt, fn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// benchmark runs one workload and prints the header, the metric lines and
// the JSON result. It returns the exit code: 0 when every op and check
// passed, 1 otherwise. An error means no result could be produced.
func benchmark(opt options, fn func(*run) error) (int, error) {
	dir, err := os.MkdirTemp(mustDir(opt.out, "inputs"), opt.workload+"-")
	if err != nil {
		return 0, fmt.Errorf("making input directory: %w", err)
	}
	defer os.RemoveAll(dir)
	r := &run{opt: opt, dir: dir, e2e: map[string]value{}, layers: map[string]value{}}
	if opt.trace {
		r.tr = newTracer()
	}
	header(opt)
	if err := fn(r); err != nil {
		return 0, fmt.Errorf("%s: %w", opt.workload, err)
	}
	if r.attempted == 0 {
		return 0, fmt.Errorf("%s: no op ran", opt.workload)
	}
	r.show("error_rate", "fraction", float64(r.failed)/float64(r.attempted), r.attempted)
	if r.tr != nil {
		r.layer("trace.coverage_min", coverage(r.tr.spans, "op"), r.attempted)
		path := filepath.Join(mustDir(opt.out, "traces"), fmt.Sprintf("%s-seed%d.json", opt.workload, opt.seed))
		if err := r.tr.write(path); err != nil {
			return 0, err
		}
		fmt.Printf("# spans %d written to %s\n", len(r.tr.spans), path)
		self := selfTimes(r.tr.spans)
		names := make([]string, 0, len(self))
		for name := range self {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("# self %-26s %12.3f ms\n", name, ms(self[name]))
		}
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	defs, got := endToEndDefs, r.e2e
	if opt.trace {
		defs, got = perLayerDefs, r.layers
	}
	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]out, len(defs))
	correct := r.failed == 0
	for _, d := range defs {
		v, ok := got[d.name]
		if opt.trace && !ok {
			v = value{} // a layer the workload leaves idle reads 0
		} else if !ok || math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			fmt.Fprintf(os.Stderr, "bench: metric %s missing or not finite\n", d.name)
			correct = false
			continue
		}
		if opt.trace {
			fmt.Printf("layer  %-24s %14.6f %-6s n=%d\n", d.name, v.v, d.unit, v.n)
		}
		metrics[d.name] = out{v.v, d.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		return 0, fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(string(b))
	if !correct {
		return 1, nil
	}
	return 0, nil
}

// mustDir returns out/name, creating it; a failure surfaces at first use.
func mustDir(out, name string) string {
	d := filepath.Join(out, name)
	_ = os.MkdirAll(d, 0o755) // a failure surfaces when the directory is used
	return d
}

// header prints the runner shape every result is read against.
func header(opt options) {
	fmt.Printf("# runner nproc=%d gomaxprocs=%d go=%s cpu=%q sha=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), gitSHA())
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v\n", opt.workload, opt.seed, opt.seconds, opt.trace)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA names the commit under test, or "unknown" outside a git work tree.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
