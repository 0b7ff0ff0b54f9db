package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"bbrnash/internal/cc"
	"bbrnash/internal/check"
	"bbrnash/internal/eventsim"
	"bbrnash/internal/exp"
	"bbrnash/internal/fluid"
	"bbrnash/internal/netsim"
	"bbrnash/internal/rng"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
)

// perLayerMetrics lists every metric a traced run prints, with its unit.
// A layer the workload does not exercise reports 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"cpu_share.eventsim", "fraction"},
	{"cpu_share.netsim", "fraction"},
	{"cpu_share.cc", "fraction"},
	{"cpu_share.fluid", "fraction"},
	{"cpu_share.encoding_json", "fraction"},
	{"cpu_share.gc", "fraction"},
	{"eventsim.schedule_ns", "ns"},
	{"eventsim.rearm_ns", "ns"},
	{"eventsim.pop_ns", "ns"},
	{"netsim.events", "count"},
	{"netsim.ns_per_event", "ns"},
	{"netsim.build_ms", "ms"},
	{"netsim.allocs_per_event", "count"},
	{"cc.bbr.on_ack_ns", "ns"},
	{"cc.bbr.acks", "count"},
	{"cc.cubic.on_ack_ns", "ns"},
	{"cc.cubic.acks", "count"},
	{"cc.bbrv2.on_ack_ns", "ns"},
	{"cc.bbrv2.acks", "count"},
	{"cc.copa.on_ack_ns", "ns"},
	{"cc.copa.acks", "count"},
	{"cc.vivace.on_ack_ns", "ns"},
	{"cc.vivace.acks", "count"},
	{"fluid.new_us", "us"},
	{"fluid.step_ns", "ns"},
	{"fluid.steps", "count"},
	{"scenario.key_us", "us"},
	{"scenario.key_calls", "count"},
	{"scenario.decode_validate_us", "us"},
	{"runner.pool_busy_frac", "fraction"},
	{"runner.pool_jobs", "count"},
	{"runner.retries", "count"},
	{"runner.stalls", "count"},
	{"runner.cache_hit_ratio", "fraction"},
	{"runner.cache_get_us", "us"},
	{"runner.cache_getraw_us", "us"},
	{"runner.cache_put_us", "us"},
	{"runner.journal_record_us", "us"},
	{"runner.journal_replay_ms", "ms"},
	{"check.audit_us", "us"},
	{"exp.fresh_units", "count"},
	{"exp.fresh_unit_ms", "ms"},
	{"exp.hit_unit_us", "us"},
	{"adopt.generation_ms", "ms"},
	{"adopt.check_ms", "ms"},
	{"adopt.fresh_sims", "count"},
	{"serve.handler_hit_us", "us"},
	{"serve.server_latency_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.deduped", "count"},
	{"serve.instant", "count"},
	{"serve.worker_restarts", "count"},
	{"serve.gen_late_p99_ms", "ms"},
	{"serve.cpu_share.encoding_json", "fraction"},
	{"serve.cpu_share.net_http", "fraction"},
	{"serve.cpu_share.gc", "fraction"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
}

// ccAlgorithms are the algorithms whose OnAck the traced run times.
var ccAlgorithms = []string{"bbr", "cubic", "bbrv2", "copa", "vivace"}

// decomposeLimit bounds how many units the traced run rebuilds from public
// calls.
const decomposeLimit = 12

// passCPULayers are the cpu_share layers reported for the traced pass.
var passCPULayers = []string{"eventsim", "netsim", "cc", "fluid", "encoding_json", "gc"}

// tracedRun is the state a traced run shares between its steps.
type tracedRun struct {
	o    options
	r    *report
	tr   *tracer
	prof *runner.CPUProfile
	path string // current profile's path
}

func startTraced(o options, r *report) (*tracedRun, error) {
	if err := os.MkdirAll(filepath.Join(workDir, "traces"), 0o755); err != nil {
		return nil, err
	}
	t := &tracedRun{o: o, r: r, tr: newTracer()}
	for _, m := range perLayerMetrics {
		r.metric(m.name, 0, m.unit)
	}
	return t, nil
}

// profile starts a CPU profile of one window of the run.
func (t *tracedRun) profile(window string) error {
	t.path = filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.%s.cpu.pprof", t.o.workload, t.o.seed, window))
	p, err := runner.StartCPUProfile(t.path)
	t.prof = p
	return err
}

// stopProfile stops the current CPU profile and returns its per-layer
// shares (see cpuShares).
func (t *tracedRun) stopProfile() (map[string]float64, error) {
	if err := t.prof.Stop(); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-unit=ms", "-nodefraction=0", "-edgefraction=0",
		"-nodecount=1000000", self, t.path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return cpuShares(parsePprofTop(string(out))), nil
}

// finish writes the spans, prints their summary and records span-derived
// metrics.
func (t *tracedRun) finish() error {
	spans := t.tr.finish()
	path := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.spans.jsonl", t.o.workload, t.o.seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	fmt.Printf("spans written to %s, profiles beside them\n", path)
	printSpanSummary(spans)
	r := t.r
	r.metric("trace.spans", float64(len(spans)), "count")
	r.metric("scenario.key_us", 1000*medianSpanMS(spans, "scenario.Spec.Key"), "us")
	r.metric("scenario.key_calls", float64(countSpans(spans, "scenario.Spec.Key")), "count")
	r.metric("check.audit_us", 1000*medianSpanMS(spans, "check.Flows"), "us")
	r.metric("exp.fresh_unit_ms", medianSpanMS(spans, "unit"), "ms")
	if n := countSpans(spans, "netsim.BuildOverride"); n > 0 {
		r.metric("netsim.build_ms", medianSpanMS(spans, "netsim.BuildOverride"), "ms")
	}
	if n := countSpans(spans, "fluid.New"); n > 0 {
		r.metric("fluid.new_us", 1000*medianSpanMS(spans, "fluid.New"), "us")
	}
	return nil
}

// traceBatch is the traced run of a batch workload: an untraced pass, a
// profiled pass with spans around each library call (whose digest must
// match), the rebuilt units and the layer probes.
func traceBatch(b batchWorkload, o options, r *report) error {
	t, err := startTraced(o, r)
	if err != nil {
		return err
	}
	u, err := b.pass(o, nil, 0)
	if err != nil {
		return err
	}
	if err := t.profile("pass"); err != nil {
		return err
	}
	root := t.tr.begin("pass", 0)
	p, err := b.pass(o, t.tr, root)
	t.tr.end(root)
	if err != nil {
		return err
	}
	shares, err := t.stopProfile()
	if err != nil {
		return err
	}
	for _, name := range passCPULayers {
		r.metric("cpu_share."+name, shares[name], "fraction")
	}
	r.attempted += u.fresh + u.hits + p.fresh + p.hits
	for _, a := range []*check.Auditor{u.audit, p.audit} {
		if err := a.Err(); err != nil {
			r.fail("audit: %v", err)
		}
	}
	r.checkDigest(p.digest.sum(), u.digest.sum())
	r.metric("trace.overhead_s", (p.wall - u.wall).Seconds(), "s")
	passMetrics(r, p)
	decompose(t, p)
	layerProbes(o, r, p, b.packet)
	if !b.packet {
		// The fluid workload also carries the serve and journal layers.
		dir := serveStoreDir(o)
		warm, err := warmStore(o, r, dir)
		if err != nil {
			return err
		}
		if err := serveLayers(t, dir, warm); err != nil {
			return err
		}
	}
	return t.finish()
}

// passMetrics records what the traced pass's pool, cache and (for
// adopt_fluid) generation callbacks observed.
func passMetrics(r *report, p *passOut) {
	r.metric("runner.pool_busy_frac", p.pool.Busy().Seconds()/(float64(p.pool.Workers())*p.wall.Seconds()), "fraction")
	r.metric("runner.pool_jobs", float64(p.pool.Jobs()), "count")
	r.metric("runner.retries", float64(p.pool.Retries()), "count")
	r.metric("runner.stalls", float64(p.pool.Stalls()), "count")
	r.metric("runner.cache_hit_ratio", p.hitRatio, "fraction")
	r.metric("exp.fresh_units", float64(p.fresh), "count")
	if n := len(p.gens); n > 1 {
		gen := median(durationsMS(p.gens[:n-1]))
		r.metric("adopt.generation_ms", gen, "ms")
		r.metric("adopt.check_ms", max(0, ms(p.gens[n-1])-gen), "ms")
		r.metric("adopt.fresh_sims", float64(p.fresh), "count")
	}
}

// ackTimer accumulates one algorithm's OnAck calls and time. Units are
// rebuilt serially, so it needs no locking.
type ackTimer struct{ calls, ns int64 }

// timedAlg is a timing decorator: it forwards every call to the wrapped
// algorithm and times OnAck.
type timedAlg struct {
	cc.Algorithm
	t *ackTimer
}

func (a timedAlg) OnAck(e cc.AckEvent) {
	t0 := time.Now()
	a.Algorithm.OnAck(e)
	a.t.ns += int64(time.Since(t0))
	a.t.calls++
}

// timedReporter keeps the wrapped algorithm's cc.StateReporter side
// visible to netsim.
type timedReporter struct {
	timedAlg
	rep cc.StateReporter
}

func (a timedReporter) StateName() string { return a.rep.StateName() }

// timedConstructors wraps every registry constructor the spec uses.
func timedConstructors(sp scenario.Spec, timers map[string]*ackTimer) (map[string]cc.Constructor, error) {
	out := map[string]cc.Constructor{}
	for _, g := range sp.Groups {
		ctor, err := cc.AlgorithmByName(g.Algorithm)
		if err != nil {
			return nil, err
		}
		t := timers[g.Algorithm]
		if t == nil {
			t = &ackTimer{}
			timers[g.Algorithm] = t
		}
		out[g.Algorithm] = func(p cc.Params) cc.Algorithm {
			a := ctor(p)
			if rep, ok := a.(cc.StateReporter); ok {
				return timedReporter{timedAlg{a, t}, rep}
			}
			return timedAlg{a, t}
		}
	}
	return out, nil
}

// chunk is the simulated time per Run call, matching the harness's
// progress slices.
const chunk = time.Second

// decompose rebuilds up to decomposeLimit of the pass's units from public
// calls — Spec.Key, Cache.Get, netsim.BuildOverride or fluid.New, Run,
// check.Flows and Cache.Put — each in its own span. Every rebuilt result
// must equal, byte for byte, what the pass cached under the same key.
func decompose(t *tracedRun, p *passOut) {
	r, tr := t.r, t.tr
	step := (len(p.units) + decomposeLimit - 1) / decomposeLimit
	cache := runner.NewCache()
	timers := map[string]*ackTimer{}
	var events, steps uint64
	var fluidRun time.Duration
	root := tr.begin("decompose", 0)
	for i := 0; i < len(p.units); i += step {
		sp := p.units[i]
		r.attempted++
		var res exp.SpecResult
		var err error
		tr.do("unit", root, func(uid int64) {
			var key string
			tr.do("scenario.Spec.Key", uid, func(int64) { key = sp.Key() })
			var hit bool
			tr.do("runner.Cache.Get", uid, func(int64) { hit = cache.Get(key, &res) })
			if hit {
				err = fmt.Errorf("unit %d was already cached", i)
				return
			}
			var ev uint64
			var st uint64
			var ran time.Duration
			res, ev, st, ran, err = runUnit(tr, uid, sp, timers)
			if err != nil {
				return
			}
			events += ev
			steps += st
			fluidRun += ran
			tr.do("check.Flows", uid, func(int64) {
				lim := check.Limits{Capacity: sp.Capacity, Buffer: sp.Buffer}
				for _, flows := range res.Groups {
					check.Flows(key, lim, flows, &res.Link)
				}
			})
			tr.do("runner.Cache.Put", uid, func(int64) { cache.Put(key, res) })
		})
		if err != nil {
			r.fail("rebuilt unit %d: %v", i, err)
			continue
		}
		raw, _ := p.cache.GetRaw(sp.Key())
		if !sameJSON(mustJSON(res), raw) {
			r.fail("rebuilt unit %d: result bytes differ from the traced pass's", i)
		}
	}
	tr.end(root)
	for _, alg := range ccAlgorithms {
		if at := timers[alg]; at != nil && at.calls > 0 {
			r.metric("cc."+alg+".on_ack_ns", float64(at.ns)/float64(at.calls), "ns")
			r.metric("cc."+alg+".acks", float64(at.calls), "count")
		}
	}
	if events > 0 {
		r.metric("netsim.events", float64(events), "count")
	}
	if steps > 0 {
		r.metric("fluid.steps", float64(steps), "count")
		r.metric("fluid.step_ns", float64(fluidRun)/float64(steps), "ns")
	}
}

// runUnit executes one spec on its backend exactly as the harness does,
// with spans around construction and the run. It returns the result, the
// packet events or fluid steps executed, and the fluid run time.
func runUnit(tr *tracer, uid int64, sp scenario.Spec, timers map[string]*ackTimer) (res exp.SpecResult, events, steps uint64, fluidRun time.Duration, err error) {
	dsp := sp.WithDefaults()
	if dsp.Backend == scenario.BackendFluid {
		var m *fluid.Model
		tr.do("fluid.New", uid, func(int64) { m, err = fluid.New(dsp) })
		if err != nil {
			return res, 0, 0, 0, err
		}
		t0 := time.Now()
		tr.do("fluid.Model.Run", uid, func(int64) {
			for done := time.Duration(0); done < dsp.Duration; done += chunk {
				m.Run(min(chunk, dsp.Duration-done))
			}
		})
		fluidRun = time.Since(t0)
		groups, link := m.Stats()
		res = exp.SpecResult{Groups: groups, Link: link, Links: []netsim.LinkStats{link}}
		return res, 0, uint64(dsp.Duration / m.Step()), fluidRun, nil
	}
	ctors, err := timedConstructors(sp, timers)
	if err != nil {
		return res, 0, 0, 0, err
	}
	var n *netsim.Network
	var flows [][]*netsim.Flow
	tr.do("netsim.BuildOverride", uid, func(int64) { n, flows, err = netsim.BuildOverride(sp, ctors) })
	if err != nil {
		return res, 0, 0, 0, err
	}
	tr.do("netsim.Network.Run", uid, func(int64) {
		for done := time.Duration(0); done < dsp.Duration; done += chunk {
			n.Run(min(chunk, dsp.Duration-done))
		}
	})
	res = exp.SpecResult{Groups: make([][]netsim.FlowStats, len(flows)), Link: n.Link(), Links: n.PerLink()}
	for gi, fs := range flows {
		for _, f := range fs {
			res.Groups[gi] = append(res.Groups[gi], f.Stats())
		}
	}
	return res, n.Events(), 0, 0, nil
}

// probeReps is how many times each unit is looked up in the store probes.
const probeReps = 20

// layerProbes times the store, scenario and harness calls one at a time
// over the pass's units and, for packet workloads, the event queue and a
// warmed network's steady state.
func layerProbes(o options, r *report, p *passOut, packet bool) {
	var get, getRaw, put, decode, hitUnit []float64
	fresh := runner.NewCache()
	ctx := context.Background()
	for rep := 0; rep < probeReps; rep++ {
		for _, sp := range p.units {
			key := sp.Key()
			var res exp.SpecResult
			t0 := time.Now()
			ok := p.cache.Get(key, &res)
			get = append(get, usSince(t0))
			t0 = time.Now()
			_, ok2 := p.cache.GetRaw(key)
			getRaw = append(getRaw, usSince(t0))
			t0 = time.Now()
			fresh.Put(key, res)
			put = append(put, usSince(t0))
			js := specJSON(sp)
			t0 = time.Now()
			var dec scenario.Spec
			err := json.Unmarshal(js, &dec)
			if err == nil {
				err = dec.Validate()
			}
			decode = append(decode, usSince(t0))
			t0 = time.Now()
			_, hit, err2 := exp.RunSpecCached(ctx, sp, p.cache, nil, nil)
			hitUnit = append(hitUnit, usSince(t0))
			if !ok || !ok2 || !hit || err != nil || err2 != nil {
				r.fail("store probe on %s: get=%v getraw=%v hit=%v decode=%v run=%v", key, ok, ok2, hit, err, err2)
				return
			}
		}
	}
	r.attempted += len(get)
	r.metric("runner.cache_get_us", median(get), "us")
	r.metric("runner.cache_getraw_us", median(getRaw), "us")
	r.metric("runner.cache_put_us", median(put), "us")
	r.metric("scenario.decode_validate_us", median(decode), "us")
	r.metric("exp.hit_unit_us", median(hitUnit), "us")
	if !packet {
		return
	}
	sched, rearm, pop := eventsimProbe(o.seed)
	r.metric("eventsim.schedule_ns", sched, "ns")
	r.metric("eventsim.rearm_ns", rearm, "ns")
	r.metric("eventsim.pop_ns", pop, "ns")
	allocs, nsPerEvent, perRun, err := steadyStateProbe(largestUnit(p.units))
	r.attempted++
	if err != nil {
		r.fail("steady-state probe: %v", err)
		return
	}
	r.metric("netsim.allocs_per_event", allocs, "count")
	r.metric("netsim.ns_per_event", nsPerEvent, "ns")
	if perRun != 0 {
		r.fail("netsim allocated %d times per simulated second in steady state; want 0", perRun)
	}
}

func usSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Microsecond) }

// largestUnit is the unit with the most flows (the first among equals).
func largestUnit(units []scenario.Spec) scenario.Spec {
	best := units[0]
	for _, sp := range units[1:] {
		if sp.TotalFlows() > best.TotalFlows() {
			best = sp
		}
	}
	return best
}

// countHandler is the event target of the queue probe.
type countHandler struct{ n int }

func (h *countHandler) OnEvent(eventsim.Kind) { h.n++ }

// eventsimProbe times the event queue's public operations: scheduling
// 2^15 events at seeded times within 200ms, popping them all, and
// re-arming 1024 timers 32 times each. Each figure is the median over five
// repetitions, in ns per operation.
func eventsimProbe(seed uint64) (schedule, rearm, pop float64) {
	const n, timers, rounds = 1 << 15, 1024, 32
	src := rng.New(seed)
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(src.Uint64() % uint64(200*time.Millisecond))
	}
	var ss, rs, ps []float64
	for rep := 0; rep < 5; rep++ {
		var l eventsim.Loop
		h := &countHandler{}
		t0 := time.Now()
		for _, d := range at {
			l.ScheduleEvent(eventsim.At(d), 1, h)
		}
		ss = append(ss, float64(time.Since(t0))/n)
		t0 = time.Now()
		l.Drain()
		ps = append(ps, float64(time.Since(t0))/n)
		// Drain leaves the clock at Never; the timers get a loop of their
		// own.
		var tl eventsim.Loop
		ts := make([]eventsim.Timer, timers)
		for i := range ts {
			ts[i].InitEvent(&tl, 2, h)
			ts[i].ArmAfter(at[i])
		}
		t0 = time.Now()
		for k := 0; k < rounds; k++ {
			for i := range ts {
				ts[i].ArmAfter(at[(k*timers+i)%n])
			}
		}
		rs = append(rs, float64(time.Since(t0))/(timers*rounds))
	}
	return median(ss), median(rs), median(ps)
}

// steadyStateProbe measures a warmed network the way the repository's
// TestSteadyStateZeroAllocs does: build sp's network, run 8 simulated
// seconds, then 5 runs of one simulated second each on one OS thread. It
// reports heap allocations and host nanoseconds per event over those runs,
// and allocations per run as testing.AllocsPerRun counts them (truncated),
// which must be 0.
func steadyStateProbe(sp scenario.Spec) (allocsPerEvent, nsPerEvent float64, allocsPerRun uint64, err error) {
	const runs = 5
	n, _, err := netsim.Build(sp)
	if err != nil {
		return 0, 0, 0, err
	}
	n.Run(8 * time.Second)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e0 := n.Events()
	t0 := time.Now()
	for i := 0; i < runs; i++ {
		n.Run(time.Second)
	}
	took := time.Since(t0)
	runtime.ReadMemStats(&after)
	events := n.Events() - e0
	if events == 0 {
		return 0, 0, 0, fmt.Errorf("no events in steady state")
	}
	mallocs := after.Mallocs - before.Mallocs
	return float64(mallocs) / float64(events), float64(took) / float64(events), mallocs / runs, nil
}
