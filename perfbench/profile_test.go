package main

import (
	"bufio"
	"os"
	"strings"
	"testing"
)

const sampleTraces = `File: tables
Type: cpu
Duration: 2.32s, Total samples = 2.12s (91.55%)
-----------+-------------------------------------------------------
      10ms   nbtinoc/internal/noc.(*InputUnit).bufferWrite
             nbtinoc/internal/noc.(*NI).deliverEject
             main.main
-----------+-------------------------------------------------------
     1.20s   runtime.memmove
             nbtinoc/internal/noc.(*Router).stageST
             nbtinoc/internal/noc.(*Network).Step
-----------+-------------------------------------------------------
     bytes:  32B
      30ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   runtime.memclrNoHeapPointers
             runtime.mallocgc
-----------+-------------------------------------------------------
       5ms   somepkg.Unlisted
-----------+-------------------------------------------------------
`

func TestParseTracesAndAttribute(t *testing.T) {
	samples, err := parseTraces(sampleTraces)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("%d samples, want 5", len(samples))
	}
	if samples[1].value != 1.2 || samples[1].frames[1] != "nbtinoc/internal/noc.(*Router).stageST" {
		t.Errorf("sample 1 = %+v", samples[1])
	}
	lm, err := parseLayerMap(layersTable)
	if err != nil {
		t.Fatal(err)
	}
	got := lm.layerSeconds(samples)
	want := map[string]float64{
		"noc.recv":    0.010,
		"noc.compute": 1.2,   // memmove charged to its caller
		"runtime.gc":  0.030, // scanobject charged to the GC worker
		"":            0.025, // runtime-only allocation stack, unlisted leaf
	}
	for l, v := range want {
		if !near(got[l], v) {
			t.Errorf("layer %q = %g, want %g (all: %v)", l, got[l], v, got)
		}
	}
}

func TestParseQuantity(t *testing.T) {
	for in, want := range map[string]float64{
		"10ms": 0.01, "1.20s": 1.2, "250us": 250e-6, "3ns": 3e-9,
		"512.02kB": 512.02 * 1024, "2MB": 2 << 20, "32B": 32, "1.5GB": 1.5 * (1 << 30), "7": 7,
	} {
		got, err := parseQuantity(in)
		if err != nil || !near(got, want) {
			t.Errorf("parseQuantity(%q) = %g, %v; want %g", in, got, err, want)
		}
	}
	if _, err := parseQuantity("fast"); err == nil {
		t.Error("parseQuantity accepted a non-number")
	}
}

// knownLayers are the layers the per-layer metrics read, plus the
// attribution markers.
var knownLayers = map[string]bool{
	"noc.step": true, "noc.recv": true, "noc.compute": true, "noc.ff": true, "noc.sample": true,
	"noc.build": true, "sensor": true, "nbti": true, "core": true, "traffic": true, "sim": true,
	"cache": true, "cache.codec": true, "sweep": true, "service": true, "service.http": true,
	"metrics": true, "runtime.gc": true, "runtime.sched": true, "profiler": true, callerLayer: true,
}

func TestLayerTableNamesKnownLayers(t *testing.T) {
	lm, err := parseLayerMap(layersTable)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range lm.rules {
		if !knownLayers[r.layer] {
			t.Errorf("rule %q maps to unknown layer %q", r.prefix, r.layer)
		}
		if seen[r.prefix] {
			t.Errorf("prefix %q listed twice", r.prefix)
		}
		seen[r.prefix] = true
	}
}

// TestLayerTableCoversProfiles: every function carrying at least 1% of
// a workload's CPU profile (recorded from traced runs of all three
// workloads into testdata/profile_functions.txt) is mapped to a layer.
func TestLayerTableCoversProfiles(t *testing.T) {
	lm, err := parseLayerMap(layersTable)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open("testdata/profile_functions.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// "<workload> <share%> <function name...>"
		parts := strings.SplitN(line, " ", 3)
		if len(parts) != 3 {
			t.Fatalf("bad line %q", line)
		}
		n++
		if _, ok := lm.lookup(parts[2]); !ok {
			t.Errorf("%s: %s carries %s of the profile but has no layer", parts[0], parts[2], parts[1])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no recorded functions")
	}
}
