package main

// metricDef names one reported metric and its unit. The lists below
// are the contract BENCHMARK.json declares; TestBenchmarkJSONMatches
// keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are reported by every untraced run, on every workload.
// Host-time metrics of the timed, resume and per-job phases (wall_s,
// resume_s, job_p50_ms) were dropped: hypervisor steal on the 2-vCPU
// reference machine moved them by more than any allowed bound between
// runs of the same code. CPU time leaves the stolen time out.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"resume_cpu_s", "s"},
	{"job_p95_ms", "ms"},
}

// perLayer are reported by traced runs. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"noc.step_s", "s"},
	{"noc.recv_s", "s"},
	{"noc.compute_s", "s"},
	{"noc.node_cycles_per_s", "1/s"},
	{"noc.cycles_stepped", "count"},
	{"noc.router_visits_active", "count"},
	{"noc.router_visits_skipped", "count"},
	{"noc.flits_routed", "count"},
	{"noc.ff_s", "s"},
	{"noc.sample_s", "s"},
	{"noc.cycles_ff", "count"},
	{"noc.build_ms", "ms"},
	{"noc.build_mb", "MB"},
	{"sensor.s", "s"},
	{"nbti.s", "s"},
	{"core.s", "s"},
	{"core.gate_events", "count"},
	{"core.wake_events", "count"},
	{"traffic.s", "s"},
	{"traffic.packets", "count"},
	{"sim.jobs", "count"},
	{"sim.job_ms", "ms"},
	{"sim.driver_s", "s"},
	{"sim.summary_ms", "ms"},
	{"sim.s", "s"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.bytes_written", "B"},
	{"cache.bytes_read", "B"},
	{"cache.write_ms", "ms"},
	{"cache.read_ms", "ms"},
	{"cache.codec_s", "s"},
	{"cache.lease_waits", "count"},
	{"sweep.units", "count"},
	{"sweep.expand_ms", "ms"},
	{"sweep.scan_ms", "ms"},
	{"sweep.merge_ms", "ms"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.result_ms", "ms"},
	{"service.polls_per_job", "count"},
	{"service.deduped", "count"},
	{"service.cached", "count"},
	{"service.computed", "count"},
	{"service.http_s", "s"},
	{"metrics.s", "s"},
	{"runtime.gc_s", "s"},
	{"runtime.sched_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"profile.total_s", "s"},
	{"profile.unmapped_s", "s"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
}

// unitOf is the declared unit of a metric name.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	return "count"
}
