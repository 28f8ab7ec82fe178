package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness check
// reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &b, nil
}

// steady runs two sets of untraced runs per workload, alternating
// between the sets run by run, and prints each end-to-end metric's
// median and quartiles per set, its spread (interquartile distance
// over median) against the metric's bound, and whether the second
// set's median stays within the bound of the first's.
func steady(args []string) error {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	var (
		root     = fs.String("root", ".", "repository checkout")
		bin      = fs.String("bin", ".bench_build/bin", "directory holding the built commands")
		workload = fs.String("workload", "", "comma-separated workloads (default: all in BENCHMARK.json)")
		runs     = fs.Int("runs", 10, "runs per set and workload, each with its own seed")
		seed0    = fs.Uint64("seed", 1, "seed of the first run; run k uses seed+k in both sets")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	bf, err := loadBenchmarkFile(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	seconds := bf.RunSeconds
	var names []string
	if *workload != "" {
		names = strings.Split(*workload, ",")
	} else {
		for _, w := range bf.Workloads {
			names = append(names, w.Name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// results[set][workload] holds one parsed result per run.
	results := [2]map[string][]*result{{}, {}}
	for k := 0; k < *runs; k++ {
		order := []int{0, 1}
		if k%2 == 1 {
			order = []int{1, 0}
		}
		for _, set := range order {
			for _, w := range names {
				res, err := runOnce(self, *root, *bin, w, *seed0+uint64(k), seconds)
				if err != nil {
					return fmt.Errorf("set %d run %d %s: %v", set+1, k, w, err)
				}
				results[set][w] = append(results[set][w], res)
				fmt.Fprintf(os.Stderr, "perfbench steady: set %d run %d %s done\n", set+1, k+1, w)
			}
		}
	}
	allOK := true
	for _, w := range names {
		fmt.Printf("\n%s (%d runs per set, %ds each)\n", w, *runs, seconds)
		fmt.Printf("  %-12s %-5s %12s %12s %12s %8s | %12s %12s %12s %8s | %6s %s\n",
			"metric", "unit", "set1 median", "q1", "q3", "spread", "set2 median", "q1", "q3", "spread", "bound", "verdict")
		var rawLines []string
		for _, m := range bf.EndToEnd {
			var med, spread [2]float64
			var q [2][3]float64
			for set := 0; set < 2; set++ {
				var vals []float64
				for _, res := range results[set][w] {
					vals = append(vals, res.Metrics[m.Name].Value)
				}
				med[set] = median(vals)
				q[set] = quartiles(vals)
				spread[set] = (q[set][2] - q[set][0]) / med[set]
			}
			var raw [2][]string
			for set := 0; set < 2; set++ {
				for _, res := range results[set][w] {
					raw[set] = append(raw[set], strconv.FormatFloat(res.Metrics[m.Name].Value, 'g', 5, 64))
				}
			}
			rawLines = append(rawLines, fmt.Sprintf("  %-12s set1 [%s]  set2 [%s]", m.Name, strings.Join(raw[0], " "), strings.Join(raw[1], " ")))
			verdict := "steady"
			if m.Name != "setup_s" && (spread[0] > m.Bound || spread[1] > m.Bound) {
				verdict = "SPREAD EXCEEDS BOUND"
			}
			if worse(med[1], med[0], m.Better) > m.Bound {
				verdict = "SECOND SET WORSE BEYOND BOUND"
			}
			if verdict != "steady" {
				allOK = false
			}
			fmt.Printf("  %-12s %-5s %12.5g %12.5g %12.5g %7.1f%% | %12.5g %12.5g %12.5g %7.1f%% | %5.0f%% %s\n",
				m.Name, m.Unit, med[0], q[0][0], q[0][2], 100*spread[0],
				med[1], q[1][0], q[1][2], 100*spread[1], 100*m.Bound, verdict)
		}
		var share [2]string
		for set := 0; set < 2; set++ {
			att, fail := 0, 0
			for _, res := range results[set][w] {
				att += res.Attempted
				fail += res.Failed
			}
			share[set] = strconv.Itoa(fail) + "/" + strconv.Itoa(att)
		}
		fmt.Printf("  failed operations: set1 %s, set2 %s\n", share[0], share[1])
		fmt.Println("  per-run values:")
		fmt.Println(strings.Join(rawLines, "\n"))
	}
	if !allOK {
		return fmt.Errorf("some metric is not steady within its bound")
	}
	fmt.Println("\nall end-to-end metrics steady within their bounds")
	return nil
}

// worse is how much worse b is than a, as a share of a.
func worse(b, a float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runOnce runs the harness for one workload and parses its result.
func runOnce(self, root, bin, workload string, seed uint64, seconds int) (*result, error) {
	cmd := exec.Command(self, "-root", root, "-bin", bin, "--workload", workload,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = dieWithParent()
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	return parseResultLine(out)
}

// parseResultLine decodes the last line of a run's output.
func parseResultLine(out []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %v", err)
	}
	return &res, nil
}
