package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/core"
	"nbtinoc/internal/noc"
	"nbtinoc/internal/sim"
	"nbtinoc/internal/traffic"
)

// replayTotals accumulates what the engine replay counted.
type replayTotals struct {
	jobs        int
	buildBytes  uint64
	stepped, ff uint64
	nodeCycles  float64
	packets     int
}

// replaySpecs runs every spec twice through the library: once through
// sim.Spec.Compute, the reference, and once through replayOne, which
// calls the engine's public entry points itself so each can be timed.
// The two summaries must be byte-identical, so the replica cannot
// drift from the program unnoticed. Each summary is then written to and
// read back from a scratch result cache.
func (r *run) replaySpecs(specs []sim.Spec, prefix string) {
	store := cache.Open(r.dir("replay-cache", prefix), cache.ReadWrite)
	for i, s := range specs {
		job := fmt.Sprintf("%s-%d", prefix, i)
		top := r.tr.begin("engine.replay", 0, job)
		sp := r.tr.begin("sim.Spec.Compute", top, job)
		want, err := s.Compute()
		r.tr.end(sp)
		if !r.op("replayed_jobs", err) {
			r.tr.end(top)
			continue
		}
		got, err := r.replayOne(s, top, job)
		r.tr.end(top)
		if !r.check("replay runs", err) {
			continue
		}
		a, err1 := json.Marshal(got)
		b, err2 := json.Marshal(want)
		if err1 != nil || err2 != nil {
			r.check("replay encodes", fmt.Errorf("%v %v", err1, err2))
			continue
		}
		r.check("replayed summary identical to Spec.Compute", checkIdentical(a, b))
		r.cacheRoundTrip(store, s, want, job)
	}
}

// cacheRoundTrip times one cache write and one cold read of a summary.
func (r *run) cacheRoundTrip(store *cache.Store, s sim.Spec, sum *sim.RunSummary, job string) {
	key, err := sim.SpecKey(s)
	if err != nil || s.Net.Policy != nil {
		return // specs with a custom policy factory bypass the cache
	}
	sp := r.tr.begin("cache.write", 0, job)
	_, err = store.Do(key, func([]byte) error { return nil }, func() ([]byte, error) { return json.Marshal(sum) })
	r.tr.end(sp)
	if !r.op("cache_writes", err) {
		return
	}
	// A fresh read-only store has nothing in memory: the read goes to
	// disk and decodes, as a resumed campaign's does.
	var back sim.RunSummary
	cold := cache.Open(store.Dir(), cache.ReadOnly)
	sp = r.tr.begin("cache.read", 0, job)
	hit, err := cold.Do(key, func(b []byte) error { return json.Unmarshal(b, &back) },
		func() ([]byte, error) { return nil, fmt.Errorf("entry vanished") })
	r.tr.end(sp)
	if r.op("cache_reads", err) {
		r.check("cache read is a hit", expect(hit, "key %s missed", key[:12]))
	}
}

// replayOne mirrors sim.Run for one spec, timing each engine entry
// point: noc.New, the generator's Tick and NextEventCycle, and the
// network's Step, RunUntil and Idle. Per-call timings are summed into
// aggregate spans under parent.
func (r *run) replayOne(s sim.Spec, parent int, job string) (*sim.RunSummary, error) {
	cfg := s.Net
	policy := s.Policy.Name
	if s.Policy.RRPeriod > 0 {
		period := s.Policy.RRPeriod
		cfg.Policy = func() noc.Policy { return &core.RRNoSensor{RotatePeriod: period} }
		policy = ""
	} else if policy != "" {
		f, err := core.Lookup(policy)
		if err != nil {
			return nil, err
		}
		cfg.Policy = f
	} else if cfg.Policy == nil {
		policy = "baseline"
	}
	gen, err := s.Gen.Build()
	if err != nil {
		return nil, err
	}
	if s.Measure == 0 {
		return nil, fmt.Errorf("zero measurement window")
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	sp := r.tr.begin("noc.New", parent, job)
	net, err := noc.New(cfg)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms)
	r.replay.buildBytes += ms.TotalAlloc - alloc0

	if listener, ok := gen.(traffic.DeliveryListener); ok {
		net.SetDeliveryHook(func(f noc.Flit, cycle uint64) {
			listener.OnDeliver(f.Src, f.Dst, int(f.VNet), cycle)
		})
	}
	var injErr error
	packets := 0
	emit := func(src, dst noc.NodeID, vnet, length int) {
		packets++
		if err := net.Inject(src, dst, vnet, length); err != nil && injErr == nil {
			injErr = err
		}
	}
	var tTick, tNext, tIdle, tStep, tFF time.Duration
	var nTick, nNext, nIdle, nStep, nFF int
	var ffCycles uint64
	total := s.Warmup + s.Measure
	horizon, _ := gen.(traffic.EventHorizon)
	for c := uint64(0); c < total; c++ {
		if horizon != nil {
			t0 := time.Now()
			next := horizon.NextEventCycle(c)
			t1 := time.Now()
			tNext += t1.Sub(t0)
			nNext++
			if next > c {
				idle := net.Idle()
				t2 := time.Now()
				tIdle += t2.Sub(t1)
				nIdle++
				if idle {
					limit := next
					if limit > total-1 {
						limit = total - 1
					}
					if c < s.Warmup && limit > s.Warmup-1 {
						limit = s.Warmup - 1
					}
					if limit > c {
						net.RunUntil(limit)
						tFF += time.Since(t2)
						nFF++
						ffCycles += limit - c
						c = limit
					}
				}
			}
		}
		t0 := time.Now()
		gen.Tick(c, emit)
		t1 := time.Now()
		net.Step()
		tStep += time.Since(t1)
		tTick += t1.Sub(t0)
		nTick++
		nStep++
		if injErr != nil {
			return nil, injErr
		}
		if c+1 == s.Warmup {
			net.ResetNBTIStats()
			net.ResetTrafficStats()
			net.ResetEventCounters()
		}
	}
	r.tr.aggregate("traffic.Tick", parent, job, tTick, nTick)
	r.tr.aggregate("traffic.NextEventCycle", parent, job, tNext, nNext)
	r.tr.aggregate("noc.Idle", parent, job, tIdle, nIdle)
	r.tr.aggregate("noc.Step", parent, job, tStep, nStep)
	r.tr.aggregate("noc.RunUntil", parent, job, tFF, nFF)

	sp = r.tr.begin("sim.summary", parent, job)
	res := &sim.RunResult{Policy: policy, Workload: gen.Name(), Cycles: s.Measure, Net: net}
	for _, p := range s.Probes {
		pr, err := sim.ReadPort(net, p)
		if err != nil {
			return nil, err
		}
		res.Ports = append(res.Ports, pr)
	}
	var latSum float64
	var latCnt int
	var ejFlits uint64
	for id := 0; id < net.Nodes(); id++ {
		st := net.NI(noc.NodeID(id)).Stats()
		res.InjectedPackets += st.InjectedPackets
		res.EjectedPackets += st.EjectedPackets
		ejFlits += st.EjectedFlits
		if st.EjectedPackets > 0 {
			latSum += st.AvgLatency()
			latCnt++
		}
	}
	if latCnt > 0 {
		res.AvgLatency = latSum / float64(latCnt)
	}
	res.Throughput = float64(ejFlits) / float64(s.Measure) / float64(net.Nodes())
	sum := res.Summary()
	r.tr.end(sp)

	r.replay.jobs++
	r.replay.stepped += uint64(nStep)
	r.replay.ff += ffCycles
	r.replay.nodeCycles += float64(nStep) * float64(net.Nodes())
	r.replay.packets += packets
	return sum, nil
}
