package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/sim"
	"nbtinoc/internal/sweep"
)

// traceState is what a traced run gathers besides spans.
type traceState struct {
	snapshots     []*snapshot // parsed registry snapshots
	snapshotFiles []string    // -metrics-out files still to parse
	cpuProfiles   []string
	memProfiles   []string
	replay        replayTotals
}

// profileArgs are the flags a traced command invocation gets: a CPU
// profile, a heap profile and a metrics snapshot, collected at the end
// of the run.
func (r *run) profileArgs(name string) []string {
	dir := r.dir("profiles")
	cpu := filepath.Join(dir, name+".cpu")
	mem := filepath.Join(dir, name+".mem")
	snap := filepath.Join(dir, name+".metrics.json")
	r.cpuProfiles = append(r.cpuProfiles, cpu)
	r.memProfiles = append(r.memProfiles, mem)
	r.snapshotFiles = append(r.snapshotFiles, snap)
	return []string{"-cpuprofile", cpu, "-memprofile", mem, "-metrics-out", snap}
}

// snapshot is a parsed metrics-registry JSON snapshot.
type snapshot struct {
	Families []struct {
		Name    string   `json:"name"`
		Labels  []string `json:"labels"`
		Metrics []struct {
			LabelValues []string `json:"label_values"`
			Counter     *uint64  `json:"counter"`
			Gauge       *int64   `json:"gauge"`
		} `json:"metrics"`
	} `json:"families"`
}

func parseSnapshot(data []byte) (*snapshot, error) {
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// sum adds a counter family's children whose labels match the given
// label=value pairs.
func (s *snapshot) sum(name string, match ...string) float64 {
	t := 0.0
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
	children:
		for _, m := range f.Metrics {
			for k := 0; k+1 < len(match); k += 2 {
				ok := false
				for i, l := range f.Labels {
					if l == match[k] && i < len(m.LabelValues) && m.LabelValues[i] == match[k+1] {
						ok = true
					}
				}
				if !ok {
					continue children
				}
			}
			if m.Counter != nil {
				t += float64(*m.Counter)
			} else if m.Gauge != nil {
				t += float64(*m.Gauge)
			}
		}
	}
	return t
}

// counter sums a family over every snapshot of the run.
func (r *run) counter(name string, match ...string) float64 {
	t := 0.0
	for _, s := range r.snapshots {
		t += s.sum(name, match...)
	}
	return t
}

// traceTables adds the library-level tracing of paper_tables: every
// spec the tables ran, as recorded by -sweep-manifest during the cache
// fill, is replayed through the engine.
func (r *run) traceTables(cacheDir string) error {
	var specs []sim.Spec
	for _, t := range paperTableSet {
		m, err := sweep.LoadManifest(filepath.Join(cacheDir, "specs-"+t.id+".json"))
		if !r.check("recorded specs load", err) {
			continue
		}
		units, err := m.Resolve()
		if !r.check("recorded specs resolve", err) {
			continue
		}
		for _, u := range units {
			specs = append(specs, u.Spec)
		}
	}
	r.replaySpecs(specs, "tables")
	r.driverTime("cmd.tables")
	return nil
}

// traceLifetime adds the library-level tracing of lifetime_mesh32:
// manifest expansion, the resume scan and merge done through the
// library against the campaign's cache, and an engine replay of every
// unit.
func (r *run) traceLifetime(g *sweep.Grid, cacheDir string, coldReport []byte) error {
	sp := r.tr.begin("sweep.NewManifest", 0, "campaign")
	_, units, err := sweep.NewManifest(g)
	r.tr.end(sp)
	if !r.check("grid expands", err) {
		return nil
	}
	r.set("sweep.units", float64(len(units)))
	store := cache.Open(cacheDir, cache.ReadOnly)
	sp = r.tr.begin("sweep.scan", 0, "campaign")
	present := 0
	for _, u := range units {
		if store.Has(u.Key) {
			present++
		}
	}
	r.tr.end(sp)
	r.check("scan finds every unit cached", expect(present == len(units), "%d of %d units cached", present, len(units)))

	sp = r.tr.begin("sweep.merge", 0, "campaign")
	runner := sim.Runner{Store: store}
	sums := make([]*sim.RunSummary, len(units))
	for i, u := range units {
		rd := r.tr.begin("cache.read", sp, "campaign")
		sums[i], err = runner.Run(u.Spec)
		r.tr.end(rd)
		if !r.op("merged_units", err) {
			r.tr.end(sp)
			return nil
		}
	}
	var report bytes.Buffer
	err = sweep.WriteReport(&report, g.Name, units, sums)
	r.tr.end(sp)
	if r.check("library merge", err) && coldReport != nil {
		r.check("library merge identical to campaign report", checkIdentical(report.Bytes(), coldReport))
	}
	specs := make([]sim.Spec, len(units))
	for i, u := range units {
		specs[i] = u.Spec
	}
	r.replaySpecs(specs, "lifetime")
	r.driverTime("cmd.nbtisweep")
	return nil
}

// traceService adds the library-level tracing of service_mix: the
// last round's fresh specs replayed through the engine.
func (r *run) traceService(fresh []svcSpec) error {
	specs := make([]sim.Spec, len(fresh))
	for i, sp := range fresh {
		specs[i] = sp.spec
	}
	r.replaySpecs(specs, "service")
	return nil
}

// traceServiceRound turns the traced round's requests and job views
// into the service layer's metrics, and profiles the daemon's
// allocations.
func (r *run) traceServiceRound(base string, results []svcResult) {
	var submit, result, polls, queue, runT []float64
	cached, computed := 0, 0
	for _, res := range results {
		if res.err != nil {
			continue
		}
		submit = append(submit, msOf(res.submit))
		result = append(result, msOf(res.result))
		polls = append(polls, float64(res.polls))
		if res.kind == kindResub {
			continue // the view is the earlier job's
		}
		if res.view.Cached {
			cached++
		} else {
			computed++
		}
		if res.view.StartedNS > 0 {
			queue = append(queue, msOf(time.Duration(res.view.StartedNS-res.view.SubmittedNS)))
			runT = append(runT, msOf(time.Duration(res.view.FinishedNS-res.view.StartedNS)))
		}
	}
	r.set("service.submit_ms", mean(submit))
	r.set("service.result_ms", mean(result))
	r.set("service.polls_per_job", mean(polls))
	r.set("service.queue_wait_ms", mean(queue))
	r.set("service.run_ms", mean(runT))
	r.set("service.cached", float64(cached))
	r.set("service.computed", float64(computed))
	r.set("service.deduped", r.counter("service_submissions_deduped_total"))
	body, err := get(base + "/debug/pprof/allocs")
	if r.op("profiles", err) {
		p := filepath.Join(r.dir("profiles"), "service-allocs.mem")
		if r.op("profiles", os.WriteFile(p, body, 0o644)) {
			r.memProfiles = append(r.memProfiles, p)
		}
	}
}

// driverTime sets sim.driver_s: host time of the traced command
// invocations minus the summed compute time of the jobs they ran.
func (r *run) driverTime(cmdSpan string) {
	self := r.tr.selfTimes()
	d := self[cmdSpan] - self["sim.Spec.Compute"]
	if d < 0 {
		d = 0
	}
	r.set("sim.driver_s", secOf(d))
}

// finishTrace computes the per-layer metrics of a traced run from its
// spans, profiles and registry snapshots, and writes the spans out.
func (r *run) finishTrace() {
	for _, f := range r.snapshotFiles {
		data, err := os.ReadFile(f)
		if !r.op("snapshots", err) {
			continue
		}
		s, err := parseSnapshot(data)
		if r.op("snapshots", err) {
			r.snapshots = append(r.snapshots, s)
		}
	}
	lm, err := parseLayerMap(layersTable)
	if err != nil {
		r.op("profiles", err)
		return
	}
	layers := map[string]float64{}
	flat := map[string]float64{}
	totalCPU := 0.0
	for _, p := range r.cpuProfiles {
		samples, err := pprofTraces(p, "")
		if !r.op("profiles", err) {
			continue
		}
		for l, v := range lm.layerSeconds(samples) {
			layers[l] += v
			totalCPU += v
		}
		for _, s := range samples {
			flat[s.frames[0]] += s.value
		}
	}
	// Functions carrying 1% of the profile are listed for the layer
	// table's coverage test (testdata/profile_functions.txt); any the
	// table does not map are reported.
	var heavy []string
	for fn, secs := range flat {
		share := secs / totalCPU
		if share < 0.01 {
			continue
		}
		heavy = append(heavy, fmt.Sprintf("%s %.1f%% %s", r.workload, 100*share, fn))
		if _, ok := lm.lookup(fn); !ok {
			r.logf("profile: no layer for %s (%.1f%%)", fn, 100*share)
		}
	}
	sort.Strings(heavy)
	allocBytes := 0.0
	for _, p := range r.memProfiles {
		samples, err := pprofTraces(p, "alloc_space")
		if !r.op("profiles", err) {
			continue
		}
		for _, s := range samples {
			allocBytes += s.value
		}
	}

	self := r.tr.selfTimes()
	counts := r.tr.counts()
	perCall := func(name string) float64 {
		if counts[name] == 0 {
			return 0
		}
		return msOf(self[name]) / float64(counts[name])
	}
	rp := r.replay
	r.set("noc.step_s", secOf(self["noc.Step"]))
	r.set("noc.ff_s", secOf(self["noc.RunUntil"]))
	r.set("noc.cycles_stepped", float64(rp.stepped))
	r.set("noc.cycles_ff", float64(rp.ff))
	if step := self["noc.Step"]; step > 0 {
		r.set("noc.node_cycles_per_s", rp.nodeCycles/step.Seconds())
	}
	if rp.jobs > 0 {
		r.set("noc.build_mb", float64(rp.buildBytes)/float64(rp.jobs)/(1<<20))
	}
	r.set("noc.build_ms", perCall("noc.New"))
	r.set("traffic.s", secOf(self["traffic.Tick"]+self["traffic.NextEventCycle"]))
	r.set("traffic.packets", float64(rp.packets))
	r.set("sim.jobs", float64(rp.jobs))
	r.set("sim.job_ms", perCall("sim.Spec.Compute"))
	r.set("sim.summary_ms", perCall("sim.summary"))
	r.set("cache.write_ms", perCall("cache.write"))
	r.set("cache.read_ms", perCall("cache.read"))
	if counts["sweep.NewManifest"] > 0 {
		r.set("sweep.expand_ms", msOf(self["sweep.NewManifest"]))
		r.set("sweep.scan_ms", msOf(self["sweep.scan"]))
		r.set("sweep.merge_ms", msOf(self["sweep.merge"]))
	}

	for metricName, layer := range map[string]string{
		"noc.recv_s": "noc.recv", "noc.compute_s": "noc.compute", "noc.sample_s": "noc.sample",
		"sensor.s": "sensor", "nbti.s": "nbti", "core.s": "core", "sim.s": "sim",
		"cache.codec_s": "cache.codec", "service.http_s": "service.http", "metrics.s": "metrics",
		"runtime.gc_s": "runtime.gc", "runtime.sched_s": "runtime.sched", "profile.unmapped_s": "",
	} {
		r.set(metricName, layers[layer])
	}
	r.set("profile.total_s", totalCPU)
	r.set("runtime.alloc_mb", allocBytes/(1<<20))

	r.set("noc.router_visits_active", r.counter("noc_unit_steps_total", "unit", "router", "state", "active"))
	r.set("noc.router_visits_skipped", r.counter("noc_unit_steps_total", "unit", "router", "state", "skipped"))
	r.set("noc.flits_routed", r.counter("noc_flits_routed_total"))
	r.set("core.gate_events", r.counter("noc_gating_transitions_total", "kind", "gate"))
	r.set("core.wake_events", r.counter("noc_gating_transitions_total", "kind", "wake"))
	r.set("cache.hits", r.counter("cache_hits_total"))
	r.set("cache.misses", r.counter("cache_misses_total"))
	r.set("cache.bytes_written", r.counter("cache_written_bytes_total"))
	r.set("cache.bytes_read", r.counter("cache_read_bytes_total"))
	r.set("cache.lease_waits", r.counter("cache_lease_waited_total"))
	r.set("trace.spans", float64(len(r.tr.spans)))

	dir := filepath.Join(r.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err == nil {
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
		if r.op("trace_writes", r.tr.write(path)) {
			r.logf("spans written to %s", path)
		}
		fns := filepath.Join(dir, r.workload+"-profile-functions.txt")
		r.op("trace_writes", os.WriteFile(fns, []byte(strings.Join(heavy, "\n")+"\n"), 0o644))
	}
}
