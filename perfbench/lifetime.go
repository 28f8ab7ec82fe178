package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/sim"
	"nbtinoc/internal/sweep"
)

// Lifetime campaign shape: a 32×32 mesh at a rate so low the network
// is idle most of the window, both policies the paper compares, and
// several process-variation draws per policy.
const (
	lifetimeSide    = 32
	lifetimeRate    = 2e-6
	lifetimeWarmup  = 2_000
	lifetimeMeasure = 500_000
	lifetimePVSeeds = 4
	lifetimePktLen  = 4
)

var lifetimePolicies = []string{"rr-no-sensor", "sensor-wise"}

// lifetimeSetupPerRound is how many manifest loads follow each round.
const lifetimeSetupPerRound = 6

// lifetimeGrid is the campaign grid a seed generates.
func (r *run) lifetimeGrid() *sweep.Grid {
	pv := make([]uint64, lifetimePVSeeds)
	for i := range pv {
		pv[i] = 1 + derive(r.seed, "lifetime-pv", i)%1_000_000
	}
	return &sweep.Grid{
		Name: "lifetime-mesh32",
		Base: sim.Scenario{
			Name: "mesh32", Width: lifetimeSide, Height: lifetimeSide, VCs: 2,
			Policy: "sensor-wise", Workload: "uniform", Rate: lifetimeRate,
			PacketLen: lifetimePktLen, Warmup: lifetimeWarmup, Measure: lifetimeMeasure,
			Seed: 1 + derive(r.seed, "lifetime-traffic", 0)%1_000_000, PVSeed: 1,
		},
		Axes:   sweep.Axes{Policies: lifetimePolicies, PVSeeds: pv},
		Probes: []string{"all"},
	}
}

// lifetimePacketsPerCycle is the mesh-wide packet arrival rate.
func lifetimePacketsPerCycle() float64 {
	return lifetimeRate * lifetimeSide * lifetimeSide / lifetimePktLen
}

// expectedLifetimePackets is the Bernoulli expectation of a unit's
// injected packets over the measured window.
func expectedLifetimePackets() float64 {
	return lifetimePacketsPerCycle() * lifetimeMeasure
}

// lifetime drives the lifetime_mesh32 workload: rounds of a cold
// campaign, each resumed from its filled cache (resume_s); setup_s
// times loading the campaign manifest (-status).
func (r *run) lifetime() error {
	g := r.lifetimeGrid()
	units := len(lifetimePolicies) * lifetimePVSeeds
	gridPath := filepath.Join(r.dir("lifetime"), "grid.json")
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(gridPath, data, 0o644); err != nil {
		return err
	}

	var setup, cpus, rss, resumes []float64
	// status times loading a campaign manifest, which runs nothing.
	status := func(manifest string, timed bool) {
		res := runCmd(r.root, r.exe("nbtisweep"), "-manifest", manifest, "-status")
		if r.op("campaign_status", res.err) &&
			r.check("status lists every unit done", nonEmptyWith(res.stdout, fmt.Sprintf("%d units: %d done", units, units))) && timed {
			setup = append(setup, secOf(res.wall))
		}
	}
	var lastCache, lastManifest string
	var coldReport []byte
	round := func(i int, traced bool) float64 {
		d := r.dir("lifetime", fmt.Sprintf("r%d", i))
		cacheDir, manifest := filepath.Join(d, "cache"), filepath.Join(d, "campaign.json")
		cold := filepath.Join(d, "cold.csv")
		args := []string{"-grid", gridPath, "-manifest", manifest, "-cache-dir", cacheDir,
			"-procs", "1", "-j", "1", "-o", cold}
		if traced {
			args = append(args, r.profileArgs(fmt.Sprintf("sweep-cold-%d", i))...)
		}
		sp := r.tr.begin("cmd.nbtisweep", 0, "campaign")
		res := runCmd(r.root, r.exe("nbtisweep"), args...)
		r.tr.end(sp)
		r.opN("campaign_units", units, res.err)
		if !r.op("campaigns", res.err) {
			return 0
		}
		report, err := os.ReadFile(cold)
		if r.check("campaign report", err) {
			r.check("campaign units and packet counts", checkCampaign(report, units, expectedLifetimePackets(), lifetimePacketsPerCycle()))
			if coldReport != nil {
				r.check("campaign deterministic", checkIdentical(report, coldReport))
			}
			coldReport = report
		}
		cpus = append(cpus, secOf(res.cpu))
		rss = append(rss, float64(res.rssKB)/1024)

		for k := 0; k < resumeRepeats; k++ {
			warm := filepath.Join(d, fmt.Sprintf("resume%d.csv", k))
			args := []string{"-manifest", manifest, "-cache-dir", cacheDir, "-procs", "1", "-j", "1", "-o", warm}
			if traced && k == 0 {
				args = append(args, r.profileArgs(fmt.Sprintf("sweep-resume-%d", i))...)
			}
			sp := r.tr.begin("cmd.nbtisweep.resume", 0, "campaign")
			res := runCmd(r.root, r.exe("nbtisweep"), args...)
			r.tr.end(sp)
			if !r.op("campaigns", res.err) {
				continue
			}
			resumes = append(resumes, secOf(res.cpu))
			got, err := os.ReadFile(warm)
			if r.check("resumed report", err) {
				r.check("resumed report identical to cold", checkIdentical(got, report))
			}
		}
		// Set-up samples sit between rounds, spread over the run; the
		// first is untimed, as the first exec of a fresh binary pays
		// for a cold page cache.
		for k := 0; k < lifetimeSetupPerRound; k++ {
			status(manifest, i > 0 || k > 0)
		}
		if lastCache != "" {
			os.RemoveAll(filepath.Dir(lastCache))
		}
		lastCache, lastManifest = cacheDir, manifest
		return secOf(res.wall)
	}
	if r.tr != nil {
		var base float64
		r.untraced(func() { base = round(0, false) })
		traced := round(1, true)
		r.rounds = 2
		if base > 0 {
			r.set("trace.overhead_pct", 100*(traced-base)/base)
		}
	} else {
		start := time.Now()
		for i := 0; !r.timeUp(start, i); i++ {
			round(i, false)
			r.rounds++
		}
	}
	if lastManifest == "" {
		return fmt.Errorf("lifetime_mesh32: no campaign finished")
	}

	for i := 0; i < setupRepeats && len(setup) < setupRepeats; i++ {
		status(lastManifest, true)
	}
	r.checkStepByStep(g, lastCache)

	r.set("setup_s", median(setup))
	r.set("cpu_s", median(cpus))
	r.set("peak_rss_mb", median(rss))
	r.set("resume_cpu_s", median(resumes))
	// One job per round, the campaign: its cost is its median CPU.
	r.set("job_p95_ms", 1000*median(cpus))

	if r.tr != nil {
		return r.traceLifetime(g, lastCache, coldReport)
	}
	return nil
}

// checkStepByStep re-runs one unit of the campaign through the library
// cycle by cycle (fast-forward off) and compares its summary with the
// fast-forwarded one the campaign cached.
func (r *run) checkStepByStep(g *sweep.Grid, cacheDir string) {
	_, units, err := sweep.NewManifest(g)
	if !r.check("grid expands", err) {
		return
	}
	u := units[int(r.seed%uint64(len(units)))]
	var cached sim.RunSummary
	store := cache.Open(cacheDir, cache.ReadOnly)
	hit, err := store.Do(u.Key, func(b []byte) error { return json.Unmarshal(b, &cached) },
		func() ([]byte, error) { return nil, fmt.Errorf("unit %s missing from the campaign cache", u.Label) })
	if !r.check("campaign cache holds unit", err) {
		return
	}
	if !hit {
		r.check("campaign cache holds unit", fmt.Errorf("unit %s was not served from the cache", u.Label))
		return
	}
	stepped, err := computeSpec(u.Spec, true)
	if !r.op("stepped_units", err) {
		return
	}
	a, err1 := json.Marshal(stepped)
	b, err2 := json.Marshal(&cached)
	if err1 != nil || err2 != nil {
		r.check("stepped summary encodes", fmt.Errorf("%v %v", err1, err2))
		return
	}
	r.check("step-by-step summary equals fast-forwarded", checkIdentical(a, b))
}

// computeSpec runs a spec through sim.Run, optionally cycle by cycle.
// It mirrors sim.Spec.Compute, which has no step-by-step switch.
func computeSpec(s sim.Spec, stepByStep bool) (*sim.RunSummary, error) {
	if s.Policy.RRPeriod > 0 || s.Net.Policy != nil {
		return nil, fmt.Errorf("spec with a custom policy factory")
	}
	gen, err := s.Gen.Build()
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(sim.RunConfig{
		Net: s.Net, PolicyName: s.Policy.Name, Warmup: s.Warmup, Measure: s.Measure,
		Gen: gen, StepByStep: stepByStep,
	}, s.Probes)
	if err != nil {
		return nil, err
	}
	return res.Summary(), nil
}
