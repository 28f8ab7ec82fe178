// Command perfbench is the repository's end-to-end benchmark. It drives
// the paper's table generator (cmd/tables), a 32×32 lifetime campaign
// (cmd/nbtisweep) and a request mix against the simulation daemon
// (cmd/nbtisimd) through their command lines and HTTP API, checks every
// output, and prints one JSON result line:
//
//	perfbench -root . -bin .bench_build/bin --workload paper_tables --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1
// a separately traced run reports per-layer metrics instead. The
// "steady" subcommand measures run-to-run spread (see steady.go).
// bench.sh builds the commands and this harness, then runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	args := os.Args[1:]
	if i := subcommandIndex(args, "steady"); i >= 0 {
		if err := steady(append(args[:i:i], args[i+1:]...)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := benchMain(args)
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

// subcommandIndex finds a bare subcommand word among the arguments.
func subcommandIndex(args []string, word string) int {
	for i, a := range args {
		if a == word {
			return i
		}
	}
	return -1
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*run) error{
	"paper_tables":    (*run).paperTables,
	"lifetime_mesh32": (*run).lifetime,
	"service_mix":     (*run).serviceMix,
}

func benchMain(args []string) (*result, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		root     = fs.String("root", ".", "repository checkout the commands were built from")
		bin      = fs.String("bin", ".bench_build/bin", "directory holding the built tables, nbtisweep and nbtisimd")
		workload = fs.String("workload", "", "paper_tables, lifetime_mesh32 or service_mix")
		seed     = fs.Uint64("seed", 1, "seed every generated input derives from")
		seconds  = fs.Float64("seconds", 20, "how long the timed phase repeats whole rounds")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	drive, ok := workloads[*workload]
	if !ok {
		return nil, fmt.Errorf("unknown --workload %q (want paper_tables, lifetime_mesh32 or service_mix)", *workload)
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return nil, err
	}
	absBin, err := filepath.Abs(*bin)
	if err != nil {
		return nil, err
	}
	for _, c := range []string{"tables", "nbtisweep", "nbtisimd"} {
		if _, err := os.Stat(filepath.Join(absBin, c)); err != nil {
			return nil, fmt.Errorf("command %s not built: %v", c, err)
		}
	}
	work, err := os.MkdirTemp(filepath.Join(absRoot, ".bench_build"), "run-"+*workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	r := &run{
		root:     absRoot,
		workload: *workload,
		bin:      absBin,
		work:     work,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		metrics:  map[string]metric{},
		ops:      map[string]*opCount{},
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	if err := drive(r); err != nil {
		return nil, err
	}
	want := endToEnd
	if r.tr != nil {
		r.finishTrace()
		want = perLayer
	}
	res := &result{Correct: !r.checkFailed, Metrics: map[string]metric{}}
	for _, d := range want {
		m, ok := r.metrics[d.name]
		if !ok {
			m = metric{Value: 0, Unit: d.unit}
		}
		res.Metrics[d.name] = metric{Value: m.Value, Unit: d.unit}
	}
	r.report(*workload)
	for _, c := range r.ops {
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
	return res, nil
}

// run is one benchmark run: its inputs, operation counts and metrics.
type run struct {
	root, bin, work string
	seed            uint64
	seconds         time.Duration
	tr              *tracer // nil in untraced runs

	workload    string
	ops         map[string]*opCount
	checkFailed bool
	metrics     map[string]metric
	rounds      int
	traceState
}

type opCount struct{ attempted, failed int }

// exe is the path of a built command.
func (r *run) exe(name string) string { return filepath.Join(r.bin, name) }

// dir makes (and returns) a fresh directory under the run's work dir.
func (r *run) dir(parts ...string) string {
	p := filepath.Join(append([]string{r.work}, parts...)...)
	if err := os.MkdirAll(p, 0o755); err != nil {
		r.logf("mkdir %s: %v", p, err)
	}
	return p
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// op counts one attempted operation of a kind; a non-nil err marks it
// failed. It reports whether the operation succeeded.
func (r *run) op(kind string, err error) bool {
	r.opN(kind, 1, err)
	if err != nil {
		r.logf("%s failed: %v", kind, err)
		return false
	}
	return true
}

// opN counts n operations of a kind that succeed or fail together.
func (r *run) opN(kind string, n int, err error) {
	c := r.ops[kind]
	if c == nil {
		c = &opCount{}
		r.ops[kind] = c
	}
	c.attempted += n
	if err != nil {
		c.failed += n
	}
}

// check counts one output check; a failed check is a failed operation
// and makes the run's outputs incorrect.
func (r *run) check(name string, err error) bool {
	if err != nil {
		r.checkFailed = true
		err = fmt.Errorf("%s: %w", name, err)
	}
	return r.op("checks", err)
}

// set records a metric value under its declared unit.
func (r *run) set(name string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// timeUp reports whether the timed phase has run long enough: a round
// is only started while time remains, and at least one always runs.
func (r *run) timeUp(start time.Time, rounds int) bool {
	return rounds > 0 && time.Since(start) >= r.seconds
}

// untraced runs f with tracing off: the baseline round a traced run
// measures its own overhead against.
func (r *run) untraced(f func()) {
	saved := r.tr
	r.tr = nil
	defer func() { r.tr = saved }()
	f()
}

// report prints the operations attempted and failed, per kind.
func (r *run) report(workload string) {
	kinds := make([]string, 0, len(r.ops))
	for k := range r.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var parts []string
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s %d/%d failed", k, r.ops[k].failed, r.ops[k].attempted))
	}
	mode := "untraced"
	if r.tr != nil {
		mode = "traced"
	}
	fmt.Printf("perfbench %s seed=%d %s rounds=%d: %s\n", workload, r.seed, mode, r.rounds, strings.Join(parts, ", "))
}

// msOf converts a duration to milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// secOf converts a duration to seconds.
func secOf(d time.Duration) float64 { return d.Seconds() }
