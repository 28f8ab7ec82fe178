package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// paperTable is one table of the paper's evaluation as cmd/tables
// regenerates it, with the CSV row count its definition fixes.
type paperTable struct {
	id, csv string
	rows    int
}

// paperTableSet: Tables II, III, IV, the ΔVth saving and the
// cooperation ablation. Row counts: Table II 6 scenarios × 3 policies
// × 4 VCs; Table III the same with 2 VCs; Table IV 8 probed ports × 2
// policies × 2 VCs; ΔVth 6 synthetic + 8 app scenarios; cooperation 6
// scenarios × 4 policies.
var paperTableSet = []paperTable{
	{"2", "table2.csv", 72},
	{"3", "table3.csv", 36},
	{"4", "table4.csv", 32},
	{"vth", "vth.csv", 14},
	{"coop", "coop.csv", 24},
}

// setupRepeats is how many no-simulation invocations a run times for
// setup_s at least; the median is reported.
const setupRepeats = 30

// resumeRepeats is how many times each campaign round is resumed.
const resumeRepeats = 3

// Between its cold tables, every paper_tables round runs
// tablesWarmPerRound warm-cache passes and tablesSetupPerTable Table I
// invocations, so those millisecond timings are spread over the whole
// run instead of falling into one burst of machine noise.
const (
	tablesWarmPerRound  = 6
	tablesSetupPerTable = 2
)

// tablesSeed is the -seed every tables invocation of a run receives.
func (r *run) tablesSeed() string {
	return strconv.FormatUint(1+derive(r.seed, "tables", 0)%1_000_000, 10)
}

// paperTables drives the paper_tables workload: rounds of the five
// tables at -quick windows, sequential, cache off (cpu_s, job_p95_ms);
// the same tables served from a warm cache (resume_cpu_s); Table I,
// which runs no simulation (setup_s).
func (r *run) paperTables() error {
	seed := r.tablesSeed()
	// args builds one invocation: table, -j width and cache mode.
	args := func(table, jobs string, cache ...string) []string {
		return append([]string{"-table", table, "-quick", "-j", jobs, "-seed", seed, "-cache"}, cache...)
	}
	tables := func(a ...string) procResult { return runCmd(r.root, r.exe("tables"), a...) }

	// Fill a cache with the five tables for the warm passes (untimed,
	// one worker per core: the output is the same at every -j). The
	// traced run records every spec the tables ran.
	cacheDir := r.dir("tables-cache")
	for _, t := range paperTableSet {
		a := args(t.id, "0", "rw", "-cache-dir", cacheDir)
		if r.tr != nil {
			a = append(a, "-sweep-manifest", filepath.Join(cacheDir, "specs-"+t.id+".json"))
		}
		r.op("table_invocations", tables(a...).err)
	}

	var setup, cpus, rss, resumes []float64
	perTable := map[string][]float64{} // each table's CPU per invocation, ms
	ref := map[string][]byte{}
	setupSample := func(timed bool) {
		res := tables(args("1", "1", "off")...)
		if r.op("table_invocations", res.err) &&
			r.check("table1_output", nonEmptyWith(res.stdout, "Table I")) && timed {
			setup = append(setup, secOf(res.wall))
		}
	}
	// warm runs one table over the filled cache; its output must be
	// what the cache-off run printed.
	warm := func(t paperTable, extra ...string) (cpu time.Duration, ok bool) {
		sp := r.tr.begin("cmd.tables.resume", 0, "table-"+t.id)
		res := tables(append(args(t.id, "1", "rw", "-cache-dir", cacheDir), extra...)...)
		r.tr.end(sp)
		if !r.op("table_invocations", res.err) {
			return 0, false
		}
		if want, ok := ref[t.id]; ok {
			r.check("table_"+t.id+"_resume_identical", checkIdentical(res.stdout, want))
		}
		return res.cpu, true
	}
	// Untimed warm-up: the first exec of a freshly built binary and the
	// first read of the filled cache pay for a cold page cache.
	setupSample(false)
	for _, t := range paperTableSet {
		warm(t)
	}

	timedRound := func(round int, traced bool) (wall float64) {
		dir := r.dir("tables", fmt.Sprintf("r%d", round))
		var w, c time.Duration
		var peak int64
		var warmSum [tablesWarmPerRound]time.Duration
		warmOK := true
		for _, t := range paperTableSet {
			a := args(t.id, "1", "off", "-csv", dir)
			if traced {
				a = append(a, r.profileArgs("tables-"+t.id)...)
			}
			sp := r.tr.begin("cmd.tables", 0, "table-"+t.id)
			res := tables(a...)
			r.tr.end(sp)
			if r.op("table_invocations", res.err) {
				w += res.wall
				c += res.cpu
				peak = max(peak, res.rssKB)
				perTable[t.id] = append(perTable[t.id], msOf(res.cpu))
				if prev, ok := ref[t.id]; ok {
					r.check("table_"+t.id+"_deterministic", checkIdentical(res.stdout, prev))
				} else {
					ref[t.id] = res.stdout
				}
			}
			for k := range warmSum {
				var extra []string
				if traced && k == 0 {
					extra = r.profileArgs("tables-resume-" + t.id)
				}
				d, ok := warm(t, extra...)
				warmSum[k] += d
				warmOK = warmOK && ok
			}
			for k := 0; k < tablesSetupPerTable; k++ {
				setupSample(true)
			}
		}
		r.checkTableCSVs(dir)
		cpus = append(cpus, secOf(c))
		rss = append(rss, float64(peak)/1024)
		if warmOK {
			for _, d := range warmSum {
				resumes = append(resumes, secOf(d))
			}
		}
		return secOf(w)
	}

	if r.tr != nil {
		// Traced run: one untraced round for the overhead baseline,
		// then one round under profiles and spans.
		var base float64
		r.untraced(func() { base = timedRound(0, false) })
		traced := timedRound(1, true)
		r.rounds = 2
		r.set("trace.overhead_pct", 100*(traced-base)/base)
	} else {
		start := time.Now()
		for round := 0; !r.timeUp(start, round); round++ {
			timedRound(round, false)
			r.rounds++
		}
	}
	for i := 0; i < setupRepeats && len(setup) < setupRepeats; i++ {
		setupSample(true)
	}

	// One job per table: its cost is its median CPU over the rounds.
	var jobs []float64
	for _, t := range paperTableSet {
		if ms := perTable[t.id]; len(ms) > 0 {
			jobs = append(jobs, median(ms))
		}
	}
	if len(cpus) == 0 || len(jobs) == 0 || len(resumes) == 0 {
		return fmt.Errorf("paper_tables: no successful invocation to measure")
	}
	r.set("setup_s", median(setup))
	r.set("cpu_s", median(cpus))
	r.set("peak_rss_mb", median(rss))
	r.set("resume_cpu_s", median(resumes))
	p95, _ := nearestRank(jobs, 0.95)
	r.set("job_p95_ms", p95)

	if r.tr != nil {
		return r.traceTables(cacheDir)
	}
	return nil
}

// checkTableCSVs runs every paper_tables output check on one round.
func (r *run) checkTableCSVs(dir string) {
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil
		}
		return data
	}
	for _, t := range paperTableSet {
		r.check(t.csv+" row count", checkRowCount(read(t.csv), t.rows))
	}
	t2, t3, t4 := read("table2.csv"), read("table3.csv"), read("table4.csv")
	vth, coop := read("vth.csv"), read("coop.csv")
	r.check("table2 duty range", checkDutyRange(t2, "duty_pct"))
	r.check("table3 duty range", checkDutyRange(t3, "duty_pct"))
	r.check("table4 duty range", checkDutyRange(t4, "avg_duty_pct"))
	r.check("coop duty range", checkDutyRange(coop, "duty_md_pct"))
	r.check("table2 no-traffic holds a VC at 100%", checkNoTrafficHolds100(t2))
	r.check("table3 no-traffic holds a VC at 100%", checkNoTrafficHolds100(t3))
	r.check("table2 sensor-wise MD minimum", checkSensorWiseMinAtMD(t2, "duty_pct"))
	r.check("table3 sensor-wise MD minimum", checkSensorWiseMinAtMD(t3, "duty_pct"))
	r.check("table4 sensor-wise MD minimum", checkSensorWiseMinAtMD(t4, "avg_duty_pct"))
	r.check("table2 gap grows with rate", checkGapGrows(t2))
	r.check("table2 rr spreads evenly", checkRRSpreadsEvenly(t2, "duty_pct"))
	r.check("table3 rr spreads evenly", checkRRSpreadsEvenly(t3, "duty_pct"))
	r.check("table4 rr spreads evenly", checkRRSpreadsEvenly(t4, "avg_duty_pct"))
	r.check("vth saving positive", checkVthSaving(vth))
	r.check("cooperation reduction positive", checkCooperation(coop))
}

// nonEmptyWith checks that a command printed its expected section.
func nonEmptyWith(out []byte, want string) error {
	if !bytes.Contains(out, []byte(want)) {
		return fmt.Errorf("output lacks %q", want)
	}
	return nil
}
