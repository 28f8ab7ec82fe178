package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// The checks below judge command outputs against properties of the
// paper's method or against values computed here, never against a
// stored copy of earlier output. Each returns nil when the output
// passes.

// csvTable is a parsed CSV file with a header row.
type csvTable struct {
	cols map[string]int
	rows [][]string
}

func parseCSV(data []byte) (*csvTable, error) {
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("empty CSV")
	}
	t := &csvTable{cols: map[string]int{}, rows: recs[1:]}
	for i, c := range recs[0] {
		t.cols[c] = i
	}
	return t, nil
}

func (t *csvTable) str(row []string, col string) (string, error) {
	i, ok := t.cols[col]
	if !ok || i >= len(row) {
		return "", fmt.Errorf("missing column %q", col)
	}
	return row[i], nil
}

func (t *csvTable) num(row []string, col string) (float64, error) {
	s, err := t.str(row, col)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("column %q: %v", col, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("column %q: %v is not finite", col, v)
	}
	return v, nil
}

// portRows groups the per-VC duty rows of a table by scenario and
// policy: duty[scenario][policy][vc], plus each scenario's MD VC and
// the row-level columns the caller asks for.
type portRows struct {
	order []string
	duty  map[string]map[string]map[int]float64
	md    map[string]int
	extra map[string]map[string]float64
}

func groupDuty(data []byte, dutyCol string, extra ...string) (*portRows, error) {
	t, err := parseCSV(data)
	if err != nil {
		return nil, err
	}
	g := &portRows{duty: map[string]map[string]map[int]float64{}, md: map[string]int{}, extra: map[string]map[string]float64{}}
	for _, row := range t.rows {
		sc, err := t.str(row, "scenario")
		if err != nil {
			return nil, err
		}
		pol, err := t.str(row, "policy")
		if err != nil {
			return nil, err
		}
		vc, err := t.num(row, "vc")
		if err != nil {
			return nil, err
		}
		d, err := t.num(row, dutyCol)
		if err != nil {
			return nil, err
		}
		isMD, err := t.num(row, "is_md")
		if err != nil {
			return nil, err
		}
		if g.duty[sc] == nil {
			g.order = append(g.order, sc)
			g.duty[sc] = map[string]map[int]float64{}
			g.extra[sc] = map[string]float64{}
		}
		if g.duty[sc][pol] == nil {
			g.duty[sc][pol] = map[int]float64{}
		}
		g.duty[sc][pol][int(vc)] = d
		if isMD == 1 {
			g.md[sc] = int(vc)
		}
		for _, c := range extra {
			v, err := t.num(row, c)
			if err != nil {
				return nil, err
			}
			g.extra[sc][c] = v
		}
	}
	for _, sc := range g.order {
		if _, ok := g.md[sc]; !ok {
			return nil, fmt.Errorf("scenario %s has no MD VC", sc)
		}
	}
	return g, nil
}

// checkRowCount: the number of data rows is fixed by the table's
// definition (scenarios × policies × VCs), so any other count means
// jobs went missing or were duplicated.
func checkRowCount(data []byte, want int) error {
	t, err := parseCSV(data)
	if err != nil {
		return err
	}
	if len(t.rows) != want {
		return fmt.Errorf("%d rows, want %d", len(t.rows), want)
	}
	return nil
}

// checkDutyRange: an NBTI duty cycle is a percentage of cycles.
func checkDutyRange(data []byte, cols ...string) error {
	t, err := parseCSV(data)
	if err != nil {
		return err
	}
	for i, row := range t.rows {
		for _, c := range cols {
			v, err := t.num(row, c)
			if err != nil {
				return fmt.Errorf("row %d: %v", i+1, err)
			}
			if v < 0 || v > 100 {
				return fmt.Errorf("row %d: %s = %g outside [0, 100]", i+1, c, v)
			}
		}
	}
	return nil
}

// checkNoTrafficHolds100: without traffic information, sensor-wise
// keeps one VC powered (never recovering) in every row.
func checkNoTrafficHolds100(data []byte) error {
	g, err := groupDuty(data, "duty_pct")
	if err != nil {
		return err
	}
	for _, sc := range g.order {
		vcs, ok := g.duty[sc]["sensor-wise-no-traffic"]
		if !ok {
			return fmt.Errorf("%s: no sensor-wise-no-traffic rows", sc)
		}
		found := false
		for _, d := range vcs {
			if d == 100 {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("%s: sensor-wise-no-traffic holds no VC at 100%%: %v", sc, vcs)
		}
	}
	return nil
}

// checkSensorWiseMinAtMD: sensor-wise recovers the most degraded VC
// first, so that VC ends with the port's lowest duty cycle.
func checkSensorWiseMinAtMD(data []byte, dutyCol string) error {
	g, err := groupDuty(data, dutyCol)
	if err != nil {
		return err
	}
	for _, sc := range g.order {
		vcs, ok := g.duty[sc]["sensor-wise"]
		if !ok {
			return fmt.Errorf("%s: no sensor-wise rows", sc)
		}
		md, ok := vcs[g.md[sc]]
		if !ok {
			return fmt.Errorf("%s: no duty for MD VC %d", sc, g.md[sc])
		}
		for vc, d := range vcs {
			if d < md {
				return fmt.Errorf("%s: sensor-wise VC %d duty %g below MD VC %d duty %g", sc, vc, d, g.md[sc], md)
			}
		}
	}
	return nil
}

// rrSpreadAbs and rrSpreadRel bound how unevenly rr-no-sensor may
// spread duty across a port's VCs: max − min ≤ abs + rel × mean. The
// rotation gives every VC the same share of recovery, so the spread is
// sampling noise; sensor-wise rows spread many times wider.
const (
	rrSpreadAbs = 2.0
	rrSpreadRel = 0.3
)

// checkRRSpreadsEvenly: rr-no-sensor rotates recovery evenly.
func checkRRSpreadsEvenly(data []byte, dutyCol string) error {
	g, err := groupDuty(data, dutyCol)
	if err != nil {
		return err
	}
	for _, sc := range g.order {
		vcs, ok := g.duty[sc]["rr-no-sensor"]
		if !ok || len(vcs) == 0 {
			return fmt.Errorf("%s: no rr-no-sensor rows", sc)
		}
		lo, hi, tot := math.Inf(1), math.Inf(-1), 0.0
		for _, d := range vcs {
			lo, hi, tot = math.Min(lo, d), math.Max(hi, d), tot+d
		}
		m := tot / float64(len(vcs))
		if hi-lo > rrSpreadAbs+rrSpreadRel*m {
			return fmt.Errorf("%s: rr-no-sensor spread %.3f exceeds %.1f + %.1f × mean %.3f", sc, hi-lo, rrSpreadAbs, rrSpreadRel, m)
		}
	}
	return nil
}

// checkGapGrows: on each mesh, the rr-vs-sensor-wise gap of the 4-VC
// table grows with the injection rate.
func checkGapGrows(data []byte) error {
	g, err := groupDuty(data, "duty_pct", "cores", "rate", "gap_pts")
	if err != nil {
		return err
	}
	type pt struct{ rate, gap float64 }
	byMesh := map[float64][]pt{}
	for _, sc := range g.order {
		e := g.extra[sc]
		byMesh[e["cores"]] = append(byMesh[e["cores"]], pt{e["rate"], e["gap_pts"]})
	}
	if len(byMesh) == 0 {
		return fmt.Errorf("no rows")
	}
	for cores, pts := range byMesh {
		sort.Slice(pts, func(i, j int) bool { return pts[i].rate < pts[j].rate })
		for i := 1; i < len(pts); i++ {
			if pts[i].gap <= pts[i-1].gap {
				return fmt.Errorf("%g cores: gap %.4f at rate %.2f does not exceed %.4f at rate %.2f",
					cores, pts[i].gap, pts[i].rate, pts[i-1].gap, pts[i-1].rate)
			}
		}
	}
	return nil
}

// checkVthSaving: gating the most degraded VC lowers its ΔVth below
// the never-gated baseline, so every saving is positive, and the
// saving agrees with the two ΔVth columns.
func checkVthSaving(data []byte) error {
	t, err := parseCSV(data)
	if err != nil {
		return err
	}
	if len(t.rows) == 0 {
		return fmt.Errorf("no rows")
	}
	for i, row := range t.rows {
		base, err := t.num(row, "dvth_baseline_mv")
		if err != nil {
			return err
		}
		sw, err := t.num(row, "dvth_sensorwise_mv")
		if err != nil {
			return err
		}
		saving, err := t.num(row, "saving_pct")
		if err != nil {
			return err
		}
		if saving <= 0 || sw >= base {
			return fmt.Errorf("row %d: saving %.4f%% (baseline %.4f mV, sensor-wise %.4f mV) is not positive", i+1, saving, base, sw)
		}
		if want := 100 * (base - sw) / base; math.Abs(want-saving) > 0.01 {
			return fmt.Errorf("row %d: saving %.4f%% disagrees with (%.4f − %.4f)/%.4f = %.4f%%", i+1, saving, base, sw, base, want)
		}
	}
	return nil
}

// checkCooperation: traffic information lowers the MD VC's duty for
// both rr-no-sensor and sensor-wise, in every scenario.
func checkCooperation(data []byte) error {
	t, err := parseCSV(data)
	if err != nil {
		return err
	}
	duty := map[string]map[string]float64{}
	var order []string
	for _, row := range t.rows {
		sc, err := t.str(row, "scenario")
		if err != nil {
			return err
		}
		pol, err := t.str(row, "policy")
		if err != nil {
			return err
		}
		d, err := t.num(row, "duty_md_pct")
		if err != nil {
			return err
		}
		if duty[sc] == nil {
			duty[sc] = map[string]float64{}
			order = append(order, sc)
		}
		duty[sc][pol] = d
	}
	if len(order) == 0 {
		return fmt.Errorf("no rows")
	}
	for _, sc := range order {
		for _, p := range []string{"rr-no-sensor", "sensor-wise"} {
			with, ok1 := duty[sc][p]
			without, ok2 := duty[sc][p+"-no-traffic"]
			if !ok1 || !ok2 {
				return fmt.Errorf("%s: missing %s rows", sc, p)
			}
			if without-with <= 0 {
				return fmt.Errorf("%s: %s reduction %.4f − %.4f is not positive", sc, p, without, with)
			}
		}
	}
	return nil
}

// sweepRow is one unit row of an nbtisweep report.
type sweepRow struct {
	label             string
	injected, ejected float64
	latency           float64
	maxDuty           float64
}

func parseSweepReport(data []byte) ([]sweepRow, error) {
	// The first line is a "# nbtinoc sweep" comment; the CSV follows.
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || !bytes.HasPrefix(data, []byte("# nbtinoc sweep ")) {
		return nil, fmt.Errorf("missing report header line")
	}
	t, err := parseCSV(data[nl+1:])
	if err != nil {
		return nil, err
	}
	var out []sweepRow
	for _, row := range t.rows {
		var s sweepRow
		if s.label, err = t.str(row, "label"); err != nil {
			return nil, err
		}
		if s.injected, err = t.num(row, "injected"); err != nil {
			return nil, err
		}
		if s.ejected, err = t.num(row, "ejected"); err != nil {
			return nil, err
		}
		if s.maxDuty, err = t.num(row, "max_duty"); err != nil {
			return nil, err
		}
		if s.latency, err = t.num(row, "avg_latency"); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// checkCampaign: the report holds one row per grid unit; each unit's
// injected packets lie within 4σ of the Bernoulli expectation rate ×
// nodes × window / packet length; a unit ejects no more than it
// injected plus the packets still in flight when the measured window
// opened; every duty is a percentage.
//
// Both counts cover the measured window only, so a packet injected in
// the last cycles of warm-up and ejected after it counts as ejected but
// not injected. The number in flight at that edge is Poisson with mean
// λ = arrival rate × mean latency (Little's law); the allowance is its
// one-in-a-million quantile.
func checkCampaign(data []byte, units int, expectedPackets, packetsPerCycle float64) error {
	rows, err := parseSweepReport(data)
	if err != nil {
		return err
	}
	if len(rows) != units {
		return fmt.Errorf("%d unit rows, want %d", len(rows), units)
	}
	sigma := math.Sqrt(expectedPackets)
	for _, r := range rows {
		if math.Abs(r.injected-expectedPackets) > 4*sigma {
			return fmt.Errorf("unit %s injected %g packets, expected %.1f ± 4σ (σ = %.1f)", r.label, r.injected, expectedPackets, sigma)
		}
		if extra := poissonQuantile(packetsPerCycle*r.latency, 1e-6); r.ejected > r.injected+extra {
			return fmt.Errorf("unit %s ejected %g > injected %g + %g in flight at the window edge", r.label, r.ejected, r.injected, extra)
		}
		if r.maxDuty < 0 || r.maxDuty > 100 {
			return fmt.Errorf("unit %s max duty %g outside [0, 100]", r.label, r.maxDuty)
		}
	}
	return nil
}

// poissonQuantile is the smallest k with P(X > k) < tail for X ~
// Poisson(lambda).
func poissonQuantile(lambda, tail float64) float64 {
	p := math.Exp(-lambda)
	cdf := p
	k := 0
	for 1-cdf >= tail && k < 1000 {
		k++
		p *= lambda / float64(k)
		cdf += p
	}
	return float64(k)
}

// checkIdentical: a repeat of the same work returns the same bytes.
func checkIdentical(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%d bytes differ from the %d-byte reference (first difference at byte %d)", len(got), len(want), firstDiff(got, want))
	}
	return nil
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
