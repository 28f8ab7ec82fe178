package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nbtinoc/internal/cache"
	"nbtinoc/internal/sim"
)

// Request stream make-up. Latency has three modes: a resubmission of a
// finished job is answered from the daemon's job store; a spec present
// only in the pre-filled cache queues and then reads the cache; a fresh
// spec queues, computes and writes the cache. The 30/40/30 split puts
// the median in the cache-read mode and the 95th percentile in the
// compute mode, each at least ten points from a mode boundary (30 and
// 70), and 240 requests leave twelve beyond the 95th percentile.
const (
	svcResub     = 72
	svcCacheOnly = 96
	svcFresh     = 72
	svcPool      = 16 // distinct finished jobs the resubmissions draw from
	// A client polls svcSpinPolls times back to back, then every
	// svcPoll. A cache read finishes within the first few polls, so its
	// latency is the daemon's, not a timer's: on this virtual machine a
	// 1 ms sleep wakes after 1–3 ms.
	svcPoll      = time.Millisecond
	svcSpinPolls = 8
	// svcWorkers is the daemon's -j. One worker leaves the second core
	// to the clients and the daemon's HTTP handling, so fast requests
	// do not wait on the scheduler; fresh jobs queue behind each other,
	// which the 95th percentile then shows.
	svcWorkers = 1
	// svcClients is the closed loop's client count. One client keeps
	// the daemon's compute on one core and leaves the other to the
	// client and HTTP handling: with two clients on two cores, a
	// sleeping poller waits milliseconds for the CPU whenever both
	// cores compute, and that wait, not the daemon, set the latency.
	svcClients = 1
)

// jobView mirrors the daemon's GET /jobs/{id} body.
type jobView struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Cached      bool   `json:"cached"`
	Submissions int    `json:"submissions"`
	SubmittedNS int64  `json:"submitted_ns"`
	StartedNS   int64  `json:"started_ns"`
	FinishedNS  int64  `json:"finished_ns"`
	Error       string `json:"error"`
}

// svcSpec is one generated request body.
type svcSpec struct {
	spec sim.Spec
	body []byte
}

// svcSpecFor generates a small spec: a 2×2 mesh at the quick windows,
// policy, VC count and rate drawn from the seed.
func (r *run) svcSpecFor(stream string, i int) (svcSpec, error) {
	g := &rng{state: derive(r.seed, stream, i)}
	policies := []string{"baseline", "rr-no-sensor", "sensor-wise", "sensor-wise-no-traffic"}
	rates := []float64{0.05, 0.1, 0.15}
	sc := sim.Scenario{
		Name: "svc", Cores: 4, VCs: 2 + 2*g.intn(2), Policy: policies[g.intn(len(policies))],
		Workload: "uniform", Rate: rates[g.intn(len(rates))], Warmup: 2_000, Measure: 20_000,
		Seed: 1 + g.next()%1_000_000, PVSeed: 1 + g.next()%1_000_000,
	}
	if err := sc.Validate(); err != nil {
		return svcSpec{}, err
	}
	spec, err := sc.Spec(sim.AllPortProbes(2, 2))
	if err != nil {
		return svcSpec{}, err
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return svcSpec{}, err
	}
	return svcSpec{spec: spec, body: body}, nil
}

func (r *run) svcSpecs(stream string, n int) ([]svcSpec, error) {
	out := make([]svcSpec, n)
	for i := range out {
		var err error
		if out[i], err = r.svcSpecFor(stream, i); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Request kinds.
const (
	kindResub = iota
	kindCacheOnly
	kindFresh
)

type svcReq struct {
	kind int
	sp   svcSpec
}

// svcResult is one request as its client saw it.
type svcResult struct {
	kind           int
	lat            time.Duration
	submit, result time.Duration
	polls          int
	view           jobView
	body           []byte
	err            error
}

// daemon is one running nbtisimd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	launch time.Duration
	ready  time.Time
	out    chan struct{} // closed once stdout is drained
}

// signalGrace is how long after /healthz first answers the daemon is
// left before it is sent SIGTERM. nbtisimd answers HTTP before it
// installs its signal handler, so a SIGTERM sent in between kills it
// without a drain.
const signalGrace = 50 * time.Millisecond

var httpClient = &http.Client{
	Timeout:   60 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
}

// startDaemon launches nbtisimd on an ephemeral port and waits until
// /healthz answers; launch is the time from exec to that answer.
func (r *run) startDaemon(cacheDir string) (*daemon, error) {
	cmd := exec.Command(r.exe("nbtisimd"), "-addr", "127.0.0.1:0", "-j", strconv.Itoa(svcWorkers),
		"-cache-dir", cacheDir, "-client-limit", "0")
	cmd.Dir = r.root
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = dieWithParent()
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, out: make(chan struct{})}
	// Kill a daemon that never announces itself rather than hang.
	guard := time.AfterFunc(20*time.Second, func() { _ = cmd.Process.Kill() })
	defer guard.Stop()
	br := bufio.NewReader(pipe)
	line, err := br.ReadString('\n')
	go func() {
		_, _ = io.Copy(io.Discard, br)
		close(d.out)
	}()
	const prefix = "nbtisimd: listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		_ = cmd.Process.Kill()
		<-d.out
		_ = cmd.Wait()
		return nil, fmt.Errorf("nbtisimd did not announce its address: %q %v", line, err)
	}
	d.base = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	for {
		resp, err := httpClient.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 15*time.Second {
			_, _, _ = d.stop()
			return nil, fmt.Errorf("nbtisimd /healthz never answered: %v", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	d.ready = time.Now()
	d.launch = d.ready.Sub(start)
	return d, nil
}

// stop drains the daemon with SIGTERM, waits for it to exit and
// returns its CPU time over its life and its peak resident set in KB.
func (d *daemon) stop() (time.Duration, int64, error) {
	time.Sleep(signalGrace - time.Since(d.ready))
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	kill := time.AfterFunc(30*time.Second, func() { _ = d.cmd.Process.Kill() })
	defer kill.Stop()
	<-d.out
	err := d.cmd.Wait()
	var cpu time.Duration
	var rss int64
	if d.cmd.ProcessState != nil {
		cpu, rss = rusageOf(d.cmd.ProcessState)
	}
	return cpu, rss, err
}

// cpuTicks reads the daemon's user+system CPU time from /proc.
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// get fetches a URL, requiring a 2xx answer.
func get(url string) ([]byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, tail(string(body), 200))
	}
	return body, nil
}

// request submits one spec and waits for its result the way a polling
// client does: POST, poll GET /jobs/{id} until done, GET the result.
func (r *run) request(base string, sp svcSpec, parent int, job string) svcResult {
	var res svcResult
	t0 := time.Now()
	span := r.tr.begin("http.submit", parent, job)
	resp, err := httpClient.Post(base+"/jobs", "application/json", bytes.NewReader(sp.body))
	if err != nil {
		res.err = err
		return res
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.tr.end(span)
	res.submit = time.Since(t0)
	if err != nil {
		res.err = err
		return res
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		res.err = fmt.Errorf("POST /jobs: %s: %s", resp.Status, tail(string(body), 200))
		return res
	}
	if err := json.Unmarshal(body, &res.view); err != nil {
		res.err = fmt.Errorf("POST /jobs body: %v", err)
		return res
	}
	for res.view.State != "done" {
		if res.view.State == "failed" {
			res.err = fmt.Errorf("job %s failed: %s", res.view.ID, res.view.Error)
			return res
		}
		if res.polls >= svcSpinPolls {
			time.Sleep(svcPoll)
		}
		span := r.tr.begin("http.poll", parent, job)
		b, err := get(base + "/jobs/" + res.view.ID)
		r.tr.end(span)
		res.polls++
		if err != nil {
			res.err = err
			return res
		}
		if err := json.Unmarshal(b, &res.view); err != nil {
			res.err = fmt.Errorf("GET /jobs/{id} body: %v", err)
			return res
		}
	}
	t1 := time.Now()
	span = r.tr.begin("http.result", parent, job)
	res.body, res.err = get(base + "/jobs/" + res.view.ID + "/result")
	r.tr.end(span)
	res.result = time.Since(t1)
	res.lat = time.Since(t0)
	return res
}

// stream runs reqs through a closed loop of clients, each sending its
// next request only once the previous result is in.
func (r *run) stream(base string, reqs []svcReq) ([]svcResult, time.Duration) {
	out := make([]svcResult, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				job := fmt.Sprintf("req-%d", i)
				sp := r.tr.begin("service.job", 0, job)
				out[i] = r.request(base, reqs[i].sp, sp, job)
				r.tr.end(sp)
				out[i].kind = reqs[i].kind
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// streamOrder builds round i's request stream from the seed.
func (r *run) streamOrder(i int, pool, cacheOnly, fresh []svcSpec) []svcReq {
	g := &rng{state: derive(r.seed, "svc-order", i)}
	var reqs []svcReq
	for k := 0; k < svcResub; k++ {
		reqs = append(reqs, svcReq{kindResub, pool[g.intn(len(pool))]})
	}
	for _, sp := range cacheOnly {
		reqs = append(reqs, svcReq{kindCacheOnly, sp})
	}
	for _, sp := range fresh {
		reqs = append(reqs, svcReq{kindFresh, sp})
	}
	for k := len(reqs) - 1; k > 0; k-- {
		j := g.intn(k + 1)
		reqs[k], reqs[j] = reqs[j], reqs[k]
	}
	return reqs
}

// statsBody is the part of GET /stats the checks read.
type statsBody struct {
	Store cache.Stats `json:"store"`
}

// serviceMix drives the service_mix workload.
func (r *run) serviceMix() error {
	cacheDir := r.dir("service", "cache")
	pool, err := r.svcSpecs("svc-pool", svcPool)
	if err != nil {
		return err
	}
	cacheOnly, err := r.svcSpecs("svc-cached", svcCacheOnly)
	if err != nil {
		return err
	}
	// Pre-fill the cache with the pool and cache-only specs through the
	// library, keeping each summary's rendering as the reference the
	// daemon's cache reads must reproduce.
	ref, err := prefill(cacheDir, append(append([]svcSpec(nil), pool...), cacheOnly...))
	if err != nil {
		return err
	}

	// An untimed launch first: the first exec of a freshly built
	// binary pays for a cold page cache.
	if d, err := r.startDaemon(cacheDir); r.op("daemon_launches", err) {
		_, _, err = d.stop()
		r.op("daemon_drains", err)
	}
	var setup, cpus, rss, lats, resumes []float64
	var lastFresh []svcSpec
	lastBodies := map[string][]byte{}
	round := func(i int, traced bool) float64 {
		d, err := r.startDaemon(cacheDir)
		if !r.op("daemon_launches", err) {
			return 0
		}
		setup = append(setup, secOf(d.launch))
		defer func() {
			_, peak, err := d.stop()
			if r.op("daemon_drains", err) {
				rss = append(rss, float64(peak)/1024)
			}
		}()
		// Pool phase: the daemon finishes the pool jobs before timing,
		// so the stream's resubmissions hit finished jobs.
		for _, sp := range pool {
			res := r.request(d.base, sp, 0, "pool")
			r.opN("http_requests", 2, res.err)
			if r.op("jobs", res.err) {
				r.check("pool result matches library", checkIdentical(res.body, ref[string(sp.body)]))
			}
		}
		fresh, err := r.svcSpecs(fmt.Sprintf("svc-fresh-%d", i), svcFresh)
		if !r.check("fresh specs generate", err) {
			return 0
		}
		reqs := r.streamOrder(i, pool, cacheOnly, fresh)
		var prof *profileFetch
		if traced {
			prof = r.fetchDaemonProfile(d.base, "service-round")
		}
		cpu0, err0 := d.cpuTime()
		results, wall := r.stream(d.base, reqs)
		cpu1, err1 := d.cpuTime()
		if prof != nil {
			prof.wait(r)
		}
		resubs := 0
		for k, res := range results {
			r.opN("http_requests", 2, res.err)
			if !r.op("jobs", res.err) {
				continue
			}
			lats = append(lats, msOf(res.lat))
			switch res.kind {
			case kindResub:
				resubs++
				r.check("resubmission result identical", checkIdentical(res.body, ref[string(reqs[k].sp.body)]))
			case kindCacheOnly:
				r.check("cache-only result matches library", checkIdentical(res.body, ref[string(reqs[k].sp.body)]))
				r.check("cache-only job served from cache", expect(res.view.Cached, "job %s not marked cached", res.view.ID))
			case kindFresh:
				r.check("fresh job computed", expect(!res.view.Cached, "job %s marked cached", res.view.ID))
				lastBodies[string(reqs[k].sp.body)] = res.body
			}
		}
		r.checkDaemonCounts(d.base, len(fresh), resubs, traced)
		var byKind [3][]float64
		for _, res := range results {
			if res.err == nil {
				byKind[res.kind] = append(byKind[res.kind], msOf(res.lat))
			}
		}
		if len(byKind[0]) > 0 && len(byKind[1]) > 0 && len(byKind[2]) > 0 {
			r.logf("round %d latency medians: resubmission %.2f ms, cache read %.2f ms, compute %.2f ms",
				i, median(byKind[0]), median(byKind[1]), median(byKind[2]))
		}
		if err0 == nil && err1 == nil {
			cpus = append(cpus, secOf(cpu1-cpu0))
		}
		lastFresh = fresh
		if traced {
			r.traceServiceRound(d.base, results)
		}
		return secOf(wall)
	}

	// restart times a restarted daemon over the same cache re-serving
	// every distinct spec of the last round (resume_s).
	restart := func() {
		var distinct []svcReq
		for _, sp := range append(append(append([]svcSpec(nil), pool...), cacheOnly...), lastFresh...) {
			distinct = append(distinct, svcReq{kindCacheOnly, sp})
		}
		d, err := r.startDaemon(cacheDir)
		if !r.op("daemon_launches", err) {
			return
		}
		setup = append(setup, secOf(d.launch))
		results, _ := r.stream(d.base, distinct)
		ok := true
		for j, res := range results {
			r.opN("http_requests", 2, res.err)
			if !r.op("jobs", res.err) {
				ok = false
				continue
			}
			want, known := ref[string(distinct[j].sp.body)]
			if !known {
				want = lastBodies[string(distinct[j].sp.body)]
			}
			r.check("restarted daemon result identical", checkIdentical(res.body, want))
			r.check("restarted daemon serves from cache", expect(res.view.Cached, "job %s recomputed", res.view.ID))
		}
		cpu, _, err := d.stop()
		if r.op("daemon_drains", err) && ok {
			resumes = append(resumes, secOf(cpu))
		}
	}
	// launch times one more start-up, so set-up samples spread over
	// the run.
	launch := func() {
		d, err := r.startDaemon(cacheDir)
		if !r.op("daemon_launches", err) {
			return
		}
		setup = append(setup, secOf(d.launch))
		_, _, err = d.stop()
		r.op("daemon_drains", err)
	}

	if r.tr != nil {
		var base float64
		r.untraced(func() { base = round(0, false) })
		traced := round(1, true)
		r.rounds = 2
		if base > 0 {
			r.set("trace.overhead_pct", 100*(traced-base)/base)
		}
		restart()
	} else {
		start := time.Now()
		for i := 0; !r.timeUp(start, i); i++ {
			round(i, false)
			restart()
			restart()
			r.rounds++
		}
	}

	for i := 0; i < setupRepeats && len(setup) < setupRepeats; i++ {
		launch()
	}

	if len(lats) == 0 || len(setup) == 0 || len(resumes) == 0 {
		return fmt.Errorf("service_mix: no successful round to measure")
	}
	r.set("setup_s", median(setup))
	if len(cpus) > 0 {
		r.set("cpu_s", median(cpus))
	}
	if len(rss) > 0 {
		r.set("peak_rss_mb", median(rss))
	}
	r.set("resume_cpu_s", median(resumes))
	p95, err := tailPercentile(lats, 0.95)
	if err != nil {
		return err
	}
	r.set("job_p95_ms", p95)
	if r.tr != nil {
		return r.traceService(lastFresh)
	}
	return nil
}

// checkDaemonCounts: the daemon computed exactly the round's distinct
// fresh specs and merged exactly its resubmissions into finished jobs.
func (r *run) checkDaemonCounts(base string, fresh, resubs int, traced bool) {
	body, err := get(base + "/stats")
	if !r.op("http_requests", err) {
		return
	}
	var st statsBody
	if !r.check("stats decode", json.Unmarshal(body, &st)) {
		return
	}
	r.check("computed count equals distinct fresh specs",
		expect(st.Store.Misses == int64(fresh), "daemon computed %d, stream held %d fresh specs", st.Store.Misses, fresh))
	mj, err := get(base + "/metrics.json")
	if !r.op("http_requests", err) {
		return
	}
	snap, err := parseSnapshot(mj)
	if !r.check("metrics decode", err) {
		return
	}
	deduped := snap.sum("service_submissions_deduped_total")
	r.check("dedup count equals resubmissions",
		expect(deduped == float64(resubs), "daemon deduped %g submissions, stream resubmitted %d", deduped, resubs))
	if traced {
		r.snapshots = append(r.snapshots, snap)
	}
}

// prefill computes specs into the cache through the library and
// returns each one's JSON rendering, keyed by request body.
func prefill(dir string, specs []svcSpec) (map[string][]byte, error) {
	store := cache.Open(dir, cache.ReadWrite)
	runner := sim.Runner{Store: store}
	out := make(map[string][]byte, len(specs))
	var mu sync.Mutex
	var firstErr error
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				sum, err := runner.Run(specs[i].spec)
				var buf bytes.Buffer
				if err == nil {
					err = sum.Render(&buf, "json")
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out[string(specs[i].body)] = buf.Bytes()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

// expect turns a condition into a check error.
func expect(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// profileFetch is a CPU profile being taken from the daemon over HTTP.
type profileFetch struct {
	done chan struct{}
	path string
	err  error
}

// fetchDaemonProfile starts a CPU profile of the daemon covering the
// next few seconds, saved under the run's profile directory.
func (r *run) fetchDaemonProfile(base, name string) *profileFetch {
	p := &profileFetch{done: make(chan struct{}), path: filepath.Join(r.dir("profiles"), name+".cpu")}
	secs := 3
	go func() {
		defer close(p.done)
		body, err := get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", base, secs))
		if err == nil {
			err = os.WriteFile(p.path, body, 0o644)
		}
		p.err = err
	}()
	return p
}

func (p *profileFetch) wait(r *run) {
	<-p.done
	if r.op("profiles", p.err) {
		r.cpuProfiles = append(r.cpuProfiles, p.path)
	}
}
