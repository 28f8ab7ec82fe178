package main

import (
	"strings"
	"testing"
)

// Small, hand-written outputs in the commands' CSV formats. Each check
// must accept the valid file and reject every deliberately corrupted
// copy.

const validTable2 = `scenario,cores,rate,policy,vc,duty_pct,is_md,gap_pts
4core-inj0.10,4,0.10,rr-no-sensor,0,6.0450,1,5.9350
4core-inj0.10,4,0.10,rr-no-sensor,1,5.3350,0,5.9350
4core-inj0.10,4,0.10,sensor-wise-no-traffic,0,0.4000,1,5.9350
4core-inj0.10,4,0.10,sensor-wise-no-traffic,1,100.0000,0,5.9350
4core-inj0.10,4,0.10,sensor-wise,0,0.1100,1,5.9350
4core-inj0.10,4,0.10,sensor-wise,1,18.7900,0,5.9350
4core-inj0.20,4,0.20,rr-no-sensor,0,15.3000,0,12.5950
4core-inj0.20,4,0.20,rr-no-sensor,1,14.3000,1,12.5950
4core-inj0.20,4,0.20,sensor-wise-no-traffic,0,100.0000,0,12.5950
4core-inj0.20,4,0.20,sensor-wise-no-traffic,1,2.3000,1,12.5950
4core-inj0.20,4,0.20,sensor-wise,0,36.4450,0,12.5950
4core-inj0.20,4,0.20,sensor-wise,1,0.8700,1,12.5950
`

const validTable4 = `scenario,cores,policy,vc,avg_duty_pct,std_duty_pct,is_md,gap_pts
4c-r0-E,4,rr-no-sensor,0,5.3583,3.4214,1,3.5367
4c-r0-E,4,rr-no-sensor,1,5.5983,3.6970,0,3.5367
4c-r0-E,4,sensor-wise,0,1.8217,1.4980,1,3.5367
4c-r0-E,4,sensor-wise,1,9.1500,5.6238,0,3.5367
`

const validVth = `scenario,md_vc,alpha_md,dvth_baseline_mv,dvth_sensorwise_mv,saving_pct
4core-inj0.10,0,0.039500,50.0000,29.1789,41.6421
16core-inj0.30,0,0.559400,50.0000,45.4000,9.2000
`

const validCoop = `scenario,md_vc,policy,duty_md_pct
4core-inj0.10,0,rr-no-sensor,11.8750
4core-inj0.10,0,rr-no-sensor-no-traffic,59.5350
4core-inj0.10,0,sensor-wise,3.9500
4core-inj0.10,0,sensor-wise-no-traffic,19.0700
`

// validReport: 2 units near the 256-packet expectation of the lifetime
// grid (σ = 16).
const validReport = `# nbtinoc sweep lifetime-mesh32 engine=nbtinoc-engine-2 units=2
index,label,key,policy,workload,avg_latency,throughput,injected,ejected,max_duty
0,rr-no-sensor/pv11,2f2e5218361d,rr-no-sensor,uniform-inj0.00,75.151316,0.000002,257,257,0.010800
1,sensor-wise/pv11,ec8012ac857e,sensor-wise,uniform-inj0.00,75.151316,0.000002,250,249,0.014400
`

// corrupt replaces every occurrence of old in s, failing the test
// if old is absent (so a fixture edit cannot silently void a case).
func corrupt(t *testing.T, s, old, new string) []byte {
	t.Helper()
	if !strings.Contains(s, old) {
		t.Fatalf("fixture lacks %q", old)
	}
	return []byte(strings.ReplaceAll(s, old, new))
}

func TestChecksRejectCorruptedOutputs(t *testing.T) {
	exp := expectedLifetimePackets()
	if exp != 256 {
		t.Fatalf("lifetime expectation %g, fixtures assume 256", exp)
	}
	cases := []struct {
		name  string
		check func([]byte) error
		valid string
		bad   [][2]string // substitutions, each yielding one corrupted file
	}{
		{"row count", func(b []byte) error { return checkRowCount(b, 12) }, validTable2,
			[][2]string{{"4core-inj0.20,4,0.20,sensor-wise,1,0.8700,1,12.5950\n", ""}}},
		{"duty range", func(b []byte) error { return checkDutyRange(b, "duty_pct") }, validTable2,
			[][2]string{{"18.7900", "100.5000"}, {"0.1100", "-0.0100"}, {"5.3350", "NaN"}, {"5.3350", "x"}}},
		{"no-traffic holds 100%", checkNoTrafficHolds100, validTable2,
			[][2]string{{"1,100.0000,0,5.9350", "1,99.9000,0,5.9350"}}},
		{"sensor-wise MD minimum", func(b []byte) error { return checkSensorWiseMinAtMD(b, "duty_pct") }, validTable2,
			[][2]string{{"sensor-wise,1,18.7900", "sensor-wise,1,0.0500"}}},
		{"table4 sensor-wise MD minimum", func(b []byte) error { return checkSensorWiseMinAtMD(b, "avg_duty_pct") }, validTable4,
			[][2]string{{"sensor-wise,1,9.1500", "sensor-wise,1,1.0000"}}},
		{"gap grows", checkGapGrows, validTable2,
			[][2]string{{"12.5950", "5.0000"}}},
		{"rr spreads evenly", func(b []byte) error { return checkRRSpreadsEvenly(b, "duty_pct") }, validTable2,
			[][2]string{{"rr-no-sensor,1,5.3350", "rr-no-sensor,1,15.3350"}}},
		{"table4 rr spreads evenly", func(b []byte) error { return checkRRSpreadsEvenly(b, "avg_duty_pct") }, validTable4,
			[][2]string{{"rr-no-sensor,1,5.5983", "rr-no-sensor,1,25.5983"}}},
		{"vth saving", checkVthSaving, validVth,
			[][2]string{{"29.1789,41.6421", "50.1000,-0.2000"}, {"29.1789,41.6421", "29.1789,40.0000"}}},
		{"cooperation", checkCooperation, validCoop,
			[][2]string{{"sensor-wise-no-traffic,19.0700", "sensor-wise-no-traffic,3.0000"}, {"rr-no-sensor,11.8750", "rr-no-sensor,60.0000"}}},
		{"campaign", func(b []byte) error { return checkCampaign(b, 2, exp, lifetimePacketsPerCycle()) }, validReport,
			[][2]string{
				{",257,257,", ",330,257,"}, // injected beyond 4σ
				{",250,249,", ",250,254,"}, // ejected beyond injected + in-flight allowance (3)
				{"75.151316", "x"},
				{"0.014400", "101.000000"},
				{"# nbtinoc sweep", "# something"},
				{"1,sensor-wise/pv11,ec8012ac857e,sensor-wise,uniform-inj0.00,75.151316,0.000002,250,249,0.014400\n", ""},
			}},
	}
	for _, tc := range cases {
		if err := tc.check([]byte(tc.valid)); err != nil {
			t.Errorf("%s: valid output rejected: %v", tc.name, err)
		}
		for i, sub := range tc.bad {
			if err := tc.check(corrupt(t, tc.valid, sub[0], sub[1])); err == nil {
				t.Errorf("%s: corruption %d (%q → %q) accepted", tc.name, i, sub[0], sub[1])
			}
		}
		if err := tc.check(nil); err == nil {
			t.Errorf("%s: empty output accepted", tc.name)
		}
	}
}

// TestCampaignAllowsPacketsInFlightAtWindowEdge: a unit may eject a
// packet injected during warm-up, so ejected can exceed injected by a
// few — seen on a real campaign (275 injected, 276 ejected).
func TestCampaignAllowsPacketsInFlightAtWindowEdge(t *testing.T) {
	rep := corrupt(t, validReport, ",250,249,", ",275,276,")
	if err := checkCampaign(rep, 2, expectedLifetimePackets(), lifetimePacketsPerCycle()); err != nil {
		t.Error(err)
	}
	// At the lifetime rate λ = 0.000512 packets/cycle × 75 cycles ≈
	// 0.038, and the allowance is 3.
	if k := poissonQuantile(lifetimePacketsPerCycle()*75.151316, 1e-6); k != 3 {
		t.Errorf("allowance %g, want 3", k)
	}
	if k := poissonQuantile(0, 1e-6); k != 0 {
		t.Errorf("allowance at λ = 0 is %g, want 0", k)
	}
}

func TestCheckIdentical(t *testing.T) {
	if err := checkIdentical([]byte("abc"), []byte("abc")); err != nil {
		t.Error(err)
	}
	for _, got := range []string{"abd", "ab", "abcd", ""} {
		if err := checkIdentical([]byte(got), []byte("abc")); err == nil {
			t.Errorf("%q accepted as identical to \"abc\"", got)
		}
	}
}

// TestTableRowCountsFollowDefinitions recomputes each table's row
// count from its shape, so the counts the checks expect are derived,
// not copied from an output.
func TestTableRowCountsFollowDefinitions(t *testing.T) {
	scenarios := 2 * 3 // 4- and 16-core meshes × rates 0.1, 0.2, 0.3
	want := map[string]int{
		"2":    scenarios * 3 * 4, // rr, sw-no-traffic, sw × 4 VCs
		"3":    scenarios * 3 * 2, // same × 2 VCs
		"4":    8 * 2 * 2,         // probed ports (4 of 4-core, 4 of 16-core) × rr, sw × 2 VCs
		"vth":  scenarios + 8,     // synthetic scenarios + app ports
		"coop": scenarios * 4,     // rr, rr-no-traffic, sw, sw-no-traffic
	}
	for _, tbl := range paperTableSet {
		if tbl.rows != want[tbl.id] {
			t.Errorf("table %s expects %d rows, its definition gives %d", tbl.id, tbl.rows, want[tbl.id])
		}
	}
}
