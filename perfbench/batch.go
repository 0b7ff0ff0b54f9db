package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"bbrnash/internal/adopt"
	"bbrnash/internal/check"
	"bbrnash/internal/exp"
	"bbrnash/internal/fluid"
	"bbrnash/internal/netsim"
	"bbrnash/internal/rng"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

// The three batch workloads run a library call end to end (a pass), then
// issue single-result requests through exp.RunSpecCached — the call every
// sweep, NE search and adoption generation makes per simulation — to time
// fresh and cache-hit requests one by one.

const (
	paperRTT      = 40 * time.Millisecond
	flowDuration  = 2 * time.Minute
	sweepTrials   = 1
	minFresh      = 100  // fresh requests per run: p90 needs 10 beyond it
	minHits       = 1000 // hit requests per round
	hitRoundFloor = 300 * time.Millisecond
)

var capacity100 = 100 * units.Mbps

// workers is the worker and connection count: at most nproc, and never
// more than two so that results stay comparable across hosts.
func workers() int { return min(2, runtime.NumCPU()) }

// passOut is what one pass of a batch workload leaves behind.
type passOut struct {
	digest *digest
	wall   time.Duration
	pool   *runner.Pool
	cache  *runner.Cache   // holds every unit result of the pass
	audit  *check.Auditor  // the pass's invariant audit
	units  []scenario.Spec // distinct evaluated specs, in evaluation order
	fresh  int             // simulations the pass ran
	hits   int             // payoff lookups the cache answered
	// hitRatio is the cache's hit ratio at the end of the pass, before
	// the benchmark's own lookups touch its counters.
	hitRatio float64
	// gens are the adoption generations' wall times (adopt_fluid only).
	gens []time.Duration
}

type batchWorkload struct {
	pass func(o options, tr *tracer, parent int64) (*passOut, error)
	// probeUnits, when set, returns the first n fresh requests of the
	// request probe (default: defaultProbeUnits).
	probeUnits func(o options, n int) []scenario.Spec
	packet     bool // packet backend (false: fluid)
}

// seedFor derives an independent seed for one named part of a workload.
func seedFor(seed uint64, part string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(part); i++ {
		h ^= uint64(part[i])
		h *= 0x100000001b3
	}
	return rng.New(seed ^ h).Uint64()
}

func newPassOut() *passOut {
	return &passOut{digest: newDigest(), pool: runner.NewPool(workers()), cache: runner.NewCache(), audit: check.New()}
}

// finishPass records the cache's hit ratio and keeps the units whose
// results the pass cached, dropping repeats.
func (p *passOut) finishPass(candidates []scenario.Spec) {
	p.hitRatio = p.cache.HitRate()
	seen := map[string]bool{}
	for _, sp := range candidates {
		k := sp.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, ok := p.cache.GetRaw(k); ok {
			p.units = append(p.units, sp)
		}
	}
}

// ---- sweep_packet ----

type figureSweep struct {
	id    string
	specs []scenario.Spec
}

// sweepFigures are packet-backend sweeps shaped like Figures 3a, 4a, 5a, 7
// and 8 at smoke scale, two points each (Figure 7 sweeps four algorithms).
// Two points and one trial make a sweep one round of the 2-worker pool and
// a pass about 4 s, so that several passes fit in a run beside the request
// probe's 100 fresh simulations; with three points and two trials a pass
// took 10 s and only one fitted.
func sweepFigures() []figureSweep {
	mix := func(alg string, nx, nc int, c units.Rate, bdp float64) scenario.Spec {
		return scenario.Mix(alg, nx, nc, c, units.BufferBytes(c, paperRTT, bdp), paperRTT, flowDuration)
	}
	var figs []figureSweep
	add := func(id string, specs ...scenario.Spec) { figs = append(figs, figureSweep{id, specs}) }
	add("3a", mix("bbr", 1, 1, 50*units.Mbps, 1), mix("bbr", 1, 1, 50*units.Mbps, 29.5))
	add("4a", mix("bbr", 5, 5, capacity100, 1), mix("bbr", 5, 5, capacity100, 29))
	add("5a", mix("bbr", 1, 9, capacity100, 3), mix("bbr", 5, 5, capacity100, 3))
	for _, alg := range []string{"vivace", "bbr", "bbrv2", "copa"} {
		add("7-"+alg, mix(alg, 1, 9, capacity100, 2), mix(alg, 5, 5, capacity100, 2))
	}
	add("8", mix("bbr", 0, 10, capacity100, 2), mix("bbr", 5, 5, capacity100, 2))
	return figs
}

// trialSeeds mirrors Scale.Sweep's per-trial seed derivation.
func trialSeeds(base uint64, n int) []uint64 {
	r := rng.New(base)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

func sweepPass(o options, tr *tracer, parent int64) (*passOut, error) {
	p := newPassOut()
	s := exp.Smoke
	s.Trials, s.Pool, s.Cache, s.Audit = sweepTrials, p.pool, p.cache, p.audit
	var cands []scenario.Spec
	start := time.Now()
	for _, f := range sweepFigures() {
		seed := seedFor(o.seed, f.id)
		var pts []exp.SweepPoint
		var err error
		tr.do("exp.Scale.Sweep", parent, func(int64) {
			pts, err = s.Sweep(seed, len(f.specs), func(i int) scenario.Spec { return f.specs[i] })
		})
		if err != nil {
			return nil, fmt.Errorf("figure %s: %w", f.id, err)
		}
		p.digest.add(f.id, mustJSON(pts))
		seeds := trialSeeds(seed, sweepTrials)
		for _, sp := range f.specs {
			for _, ts := range seeds {
				sp.Seed = ts
				cands = append(cands, sp)
			}
		}
	}
	p.wall = time.Since(start)
	p.fresh = len(cands)
	p.finishPass(cands)
	return p, nil
}

// ---- ne_walk ----

type nePoint struct {
	n      int
	bufBDP float64
}

var nePoints = []nePoint{{20, 10}}

func neConfig(o options, pt nePoint) exp.NESearchConfig {
	return exp.NESearchConfig{
		Capacity: capacity100,
		Buffer:   units.BufferBytes(capacity100, paperRTT, pt.bufBDP),
		RTT:      paperRTT,
		N:        pt.n,
		Duration: flowDuration,
		Seed:     seedFor(o.seed, pt.id()),
	}
}

func (pt nePoint) id() string { return fmt.Sprintf("N%d-B%g", pt.n, pt.bufBDP) }

// nePayoffSpec is FindNE's payoff simulation of the distribution with numX
// BBR flows (see exp.MixConfig).
func nePayoffSpec(cfg exp.NESearchConfig, numX int, seed uint64) scenario.Spec {
	return scenario.Spec{
		Capacity:    cfg.Capacity,
		Buffer:      cfg.Buffer,
		AckJitter:   scenario.DefaultAckJitter,
		StartJitter: scenario.DefaultStartJitter,
		Duration:    exp.PayoffDuration(cfg.Duration),
		Seed:        seed,
		Groups: []scenario.Group{
			{Algorithm: "bbr", Count: numX, RTT: cfg.RTT},
			{Algorithm: "cubic", Count: cfg.N - numX, RTT: cfg.RTT},
		},
	}
}

// neProbeUnits are n fresh payoff simulations of a fixed mix of shapes —
// the last NE point with 0, ¼, ½, ¾ and all of its flows running BBR,
// cycled — so that the probe's cost does not depend on where a seed's
// walks went. They are of one point only: with the shapes of two points
// whose flow counts differ, the median fell between two clusters of
// latencies and jumped from one to the other between runs.
func neProbeUnits(o options, n int) []scenario.Spec {
	pt := nePoints[len(nePoints)-1]
	cfg := neConfig(o, pt)
	var out []scenario.Spec
	for k := 0; len(out) < n; k++ {
		for q := 0; q <= 4; q++ {
			numX := pt.n * q / 4
			out = append(out, nePayoffSpec(cfg, numX, seedFor(cfg.Seed, fmt.Sprint("probe", numX, k))))
		}
	}
	return out[:n]
}

func nePass(o options, tr *tracer, parent int64) (*passOut, error) {
	p := newPassOut()
	var cands []scenario.Spec
	start := time.Now()
	for _, pt := range nePoints {
		id := pt.id()
		cfg := neConfig(o, pt)
		cfg.Pool, cfg.Cache, cfg.Audit = p.pool, p.cache, p.audit
		var res exp.NESearchResult
		var err error
		tr.do("exp.FindNE", parent, func(int64) { res, err = exp.FindNE(cfg) })
		if err != nil {
			return nil, fmt.Errorf("NE search %s: %w", id, err)
		}
		p.digest.add(id, mustJSON(res))
		p.fresh += res.Simulations
		p.hits += res.CacheHits
		// FindNE's payoff specs, one per distribution: the ones it
		// evaluated are in the cache.
		seeds := trialSeeds(cfg.Seed, cfg.N+1)
		for numX := 0; numX <= cfg.N; numX++ {
			cands = append(cands, nePayoffSpec(cfg, numX, seeds[numX]))
		}
	}
	p.wall = time.Since(start)
	p.finishPass(cands)
	if len(p.units) != p.fresh {
		return nil, fmt.Errorf("found %d of the %d payoff specs the searches simulated", len(p.units), p.fresh)
	}
	return p, nil
}

// ---- adopt_fluid ----

func adoptConfig(o options) adopt.Config {
	return adopt.Config{
		Capacity: capacity100,
		Buffer:   units.BufferBytes(capacity100, 80*time.Millisecond, 5),
		Classes: []adopt.Class{
			{RTT: 20 * time.Millisecond, Weight: 1},
			{RTT: 40 * time.Millisecond, Weight: 1},
			{RTT: 80 * time.Millisecond, Weight: 1},
		},
		Algorithms:  []string{"cubic", "reno", "bbr"},
		Agents:      100000,
		Generations: 100,
		Seed:        seedFor(o.seed, "adopt"),
		Backend:     scenario.BackendFluid,
	}
}

func adoptPass(o options, tr *tracer, parent int64) (*passOut, error) {
	p := newPassOut()
	cfg := adoptConfig(o)
	cfg.Pool, cfg.Cache, cfg.Audit = p.pool, p.cache, p.audit
	last := time.Now()
	cfg.OnRecord = func(adopt.Record) {
		now := time.Now()
		p.gens = append(p.gens, now.Sub(last))
		last = now
	}
	start := last
	var res adopt.Result
	var err error
	tr.do("adopt.Run", parent, func(int64) { res, err = adopt.Run(cfg) })
	if err != nil {
		return nil, fmt.Errorf("adoption run: %w", err)
	}
	p.wall = time.Since(start)
	var buf bytes.Buffer
	if err := adopt.WriteJSONL(&buf, res.Trajectory); err != nil {
		return nil, err
	}
	p.digest.add("trajectory", buf.Bytes())
	p.fresh, p.hits = res.Simulations, res.CacheHits
	// Each record's probed flow profile is the payoff spec its generation
	// simulated, and each profile's unilateral deviations are the specs
	// its deviation gains simulated (see adopt's evaluator). Every profile
	// must be in the cache: otherwise adoptSpec no longer matches adopt's
	// own spec shape or seeding.
	var profiles, cands []scenario.Spec
	for _, rec := range res.Trajectory {
		counts := make([][]int, len(rec.Classes))
		for c, cl := range rec.Classes {
			for _, alg := range cfg.Algorithms {
				counts[c] = append(counts[c], cl.SimCounts[alg])
			}
		}
		profiles = append(profiles, adoptSpec(cfg, counts))
		cands = append(cands, profiles[len(profiles)-1])
		for c := range counts {
			for a := range counts[c] {
				for t := range counts[c] {
					if t == a || counts[c][a] == 0 {
						continue
					}
					counts[c][a]--
					counts[c][t]++
					cands = append(cands, adoptSpec(cfg, counts))
					counts[c][a]++
					counts[c][t]--
				}
			}
		}
	}
	p.finishPass(cands)
	for i, sp := range profiles {
		if _, ok := p.cache.GetRaw(sp.Key()); !ok {
			return nil, fmt.Errorf("record %d's probed profile is not in the cache: the rebuilt spec differs from adopt's", i)
		}
	}
	return p, nil
}

// adoptSpec is the payoff spec adopt simulates for a (class, algorithm)
// flow-count matrix: groups class-major, algorithm-minor.
func adoptSpec(cfg adopt.Config, counts [][]int) scenario.Spec {
	var flat []int
	var groups []scenario.Group
	for c := range counts {
		for a, k := range counts[c] {
			flat = append(flat, k)
			groups = append(groups, scenario.Group{Algorithm: cfg.Algorithms[a], Count: k, RTT: cfg.Classes[c].RTT})
		}
	}
	return scenario.Spec{
		Capacity:    cfg.Capacity,
		Buffer:      cfg.Buffer,
		AckJitter:   scenario.DefaultAckJitter,
		StartJitter: scenario.DefaultStartJitter,
		Duration:    exp.PayoffDuration(cfg.Duration),
		Seed:        exp.ProfileSeed(cfg.Seed, flat),
		Backend:     cfg.Backend,
		Groups:      groups,
	}
}

// passStoreDir holds the on-disk store a batch workload's set-up opens.
func passStoreDir(o options) string {
	return filepath.Join(workDir, "store", fmt.Sprintf("%s-seed%d", o.workload, o.seed))
}

// saveStore persists the pass's results as an on-disk cache, the store a
// CLI opens with -cache, and the wire form of its first unit.
func saveStore(o options, p *passOut) error {
	dir := passStoreDir(o)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	c, err := runner.OpenCache(filepath.Join(dir, "cache.json"), scenario.KeyVersion)
	if err != nil {
		return err
	}
	for _, sp := range p.units {
		raw, _ := p.cache.GetRaw(sp.Key())
		c.Put(sp.Key(), raw)
	}
	if err := errors.Join(c.Save(), c.Close()); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "first.json"), specJSON(p.units[0]), 0o644)
}

// batchSetup is what a batch workload does before its first simulation
// can start: open the on-disk store saveStore left (loading every result
// in it), decode and validate the first unit's spec, check the store holds
// its result, and build that unit's network or fluid model.
func batchSetup(o options) (func(), error) {
	dir := passStoreDir(o)
	c, err := runner.OpenCache(filepath.Join(dir, "cache.json"), scenario.KeyVersion)
	if err != nil {
		return nil, err
	}
	release := func() { c.Close() }
	data, err := os.ReadFile(filepath.Join(dir, "first.json"))
	var sp scenario.Spec
	if err == nil {
		err = json.Unmarshal(data, &sp)
	}
	if err == nil {
		err = sp.Validate()
	}
	if err == nil {
		if _, ok := c.GetRaw(sp.Key()); !ok {
			err = fmt.Errorf("store in %s lacks its first unit", dir)
		}
	}
	if err == nil {
		if sp.WithDefaults().Backend == scenario.BackendFluid {
			_, err = fluid.New(sp.WithDefaults())
		} else {
			_, _, err = netsim.Build(sp)
		}
	}
	if err != nil {
		release()
		return nil, err
	}
	return release, nil
}

// runBatch is the untraced run of a batch workload. It interleaves passes
// with chunks of the request probe, keeping the time spent on each about
// equal, so that both are sampled across the whole run and not each in one
// stretch of it: the host's speed drifts over seconds. A round of hit
// requests follows a step whenever hit rounds have taken less than a tenth
// of the run so far; a hit percentile is the interquartile mean over
// rounds of each round's percentile, so a burst of host noise that hits a
// few rounds does not move it, and a shift in how many rounds ran while
// the host was slow moves it only in proportion. Set-up is timed the same
// way, a few starts at a time through the run. It stops starting steps at
// the budget, once it has a pass and minFresh fresh requests; passes stop
// early enough for the missing fresh requests to fit.
func runBatch(b batchWorkload, o options, r *report) error {
	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	var walls, setups []float64
	var hits [][]float64
	var first *passOut
	var pr *probe
	var passTime, lastPass, lastChunk, hitTime time.Duration
	for {
		elapsed := time.Since(start)
		var owed time.Duration // what the missing fresh requests should take
		if pr != nil && len(pr.freshMS) > 0 && len(pr.freshMS) < minFresh {
			owed = pr.busy * time.Duration(minFresh-len(pr.freshMS)) / time.Duration(len(pr.freshMS))
		}
		switch {
		case first == nil || (passTime <= pr.busy && elapsed+lastPass+owed <= budget):
			p, err := b.pass(o, nil, 0)
			if err != nil {
				return err
			}
			r.attempted += p.fresh + p.hits
			if err := p.audit.Err(); err != nil {
				r.fail("audit: %v", err)
			}
			walls = append(walls, p.wall.Seconds())
			passTime += p.wall
			lastPass = p.wall
			if first == nil {
				first = p
				r.checkDigest(p.digest.sum(), "")
				if err := saveStore(o, p); err != nil {
					return err
				}
				pr = newProbe(b, o, p, r)
			} else if got, want := p.digest.sum(), first.digest.sum(); got != want {
				r.fail("pass %d digest %s differs from the first pass's %s", len(walls), got, want)
			}
		case len(pr.freshMS) < minFresh || elapsed+lastChunk <= budget:
			lastChunk = pr.chunk()
		default:
			ts, err := measureSetup(o, setupRuns-len(setups))
			if err != nil {
				return err
			}
			setups = append(setups, ts...)
			r.metric("setup_s", median(setups), "s")
			r.samples["setup_s"] = len(setups)
			if err := pr.audit.Err(); err != nil {
				r.fail("audit: %v", err)
			}
			r.metric("wall_s", median(walls), "s")
			r.samples["wall_s"] = len(walls)
			r.pctRounds("hit_p50_ms", hits, 0.50)
			r.pctRounds("hit_p90_ms", hits, 0.90)
			r.pct("fresh_p50_ms", pr.freshMS, 0.50)
			r.pct("fresh_p90_ms", pr.freshMS, 0.90)
			r.metric("sustained_per_s", float64(len(pr.freshMS))/pr.busy.Seconds(), "1/s")
			return nil
		}
		// Set-up is timed a few starts at a time, spread like the rest.
		if due := int(setupRuns * time.Since(start) / budget); len(setups) < min(due, setupRuns) {
			ts, err := measureSetup(o, min(due, setupRuns)-len(setups))
			if err != nil {
				return err
			}
			setups = append(setups, ts...)
		}
		if hitTime < time.Since(start)/10 {
			t0 := time.Now()
			hits = append(hits, hitRound(first, r))
			hitTime += time.Since(t0)
		}
	}
}

// probeChunk is how many fresh requests a chunk of the probe issues.
const probeChunk = 10

// defaultProbeUnits are the pass's units followed by copies under other
// seeds until there are n of them.
func defaultProbeUnits(o options, p *passOut, n int) []scenario.Spec {
	out := append([]scenario.Spec(nil), p.units...)
	for k := 0; len(out) < n; k++ {
		sp := p.units[k%len(p.units)]
		sp.Seed = seedFor(sp.Seed, fmt.Sprint("probe", k))
		out = append(out, sp)
	}
	return out[:n]
}

// probe is the request probe: single-result requests through
// exp.RunSpecCached on workers() closed-loop goroutines. Fresh requests run
// the workload's probe units a chunk at a time, each chunk against an
// empty cache of its own, so that the results held do not grow with the
// number of requests the host's speed let a run make (peak_rss_mb would
// follow it); a unit the pass also ran must return the pass's bytes. The loop is
// saturated, so fresh requests completed per second of chunk wall time is
// the workload's sustained rate.
type probe struct {
	b       batchWorkload
	o       options
	p       *passOut // the first pass
	r       *report
	audit   *check.Auditor
	freshMS []float64
	busy    time.Duration // wall time of all chunks
}

func newProbe(b batchWorkload, o options, p *passOut, r *report) *probe {
	return &probe{b: b, o: o, p: p, r: r, audit: check.New()}
}

// chunk issues the next probeChunk fresh requests and returns its wall
// time.
func (pr *probe) chunk() time.Duration {
	n := len(pr.freshMS) + probeChunk
	var units []scenario.Spec
	if pr.b.probeUnits != nil {
		units = pr.b.probeUnits(pr.o, n)
	} else {
		units = defaultProbeUnits(pr.o, pr.p, n)
	}
	units = units[len(pr.freshMS):]
	cache := runner.NewCache()
	ctx := context.Background()
	var mu sync.Mutex
	t0 := time.Now()
	pr.freshMS = append(pr.freshMS, closedLoop(len(units), func(i int) time.Duration {
		sp := units[i]
		t0 := time.Now()
		res, hit, err := exp.RunSpecCached(ctx, sp, cache, nil, pr.audit)
		took := time.Since(t0)
		mu.Lock()
		defer mu.Unlock()
		if err != nil || hit {
			pr.r.fail("fresh request %s: hit=%v err=%v", sp.Key(), hit, err)
		} else if raw, ok := pr.p.cache.GetRaw(sp.Key()); ok && !sameJSON(mustJSON(res), raw) {
			pr.r.fail("fresh request %s: result bytes differ from the pass's", sp.Key())
		}
		return took
	})...)
	took := time.Since(t0)
	pr.busy += took
	pr.r.attempted += len(units)
	return took
}

// hitBlock is how many hit requests are timed between two collections;
// hitWarm is how many untimed hit requests follow each collection first.
const (
	hitBlock = 100
	hitWarm  = 10
)

// hitRound times at least minHits cache-hit requests, and for at least
// hitRoundFloor, replaying the pass's units against its warm cache one at a
// time, so that a hit waits for nothing but itself. The collector is kept
// out of the timed requests: it is off during each block of hitBlock
// requests and runs between blocks, untimed. Otherwise the tail
// percentile would mostly say where collections happened to fall; their
// cost is cpu_share.gc in a traced run. Each collection is followed by
// hitWarm untimed requests: a collection evicts the processor caches, and
// the first requests after it ran up to twice as slow, about one request
// in a hundred, which is where the 99th percentile lies. A block's
// garbage, a few MB, stays below the heap the pass itself reached, so
// peak_rss_mb is unaffected.
func hitRound(p *passOut, r *report) []float64 {
	ctx := context.Background()
	var hits []float64
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	request := func(i int) time.Duration {
		sp := p.units[i%len(p.units)]
		t0 := time.Now()
		_, hit, err := exp.RunSpecCached(ctx, sp, p.cache, nil, nil)
		took := time.Since(t0)
		r.attempted++
		if err != nil || !hit {
			r.fail("hit request %s: hit=%v err=%v", sp.Key(), hit, err)
		}
		return took
	}
	start := time.Now()
	for i := 0; len(hits) < minHits || time.Since(start) < hitRoundFloor; i++ {
		if i%hitBlock == 0 {
			runtime.GC()
			for w := 0; w < hitWarm; w++ {
				request(i + w)
			}
		}
		hits = append(hits, ms(request(i)))
	}
	runtime.GC()
	return hits
}

// sameJSON reports whether got equals want once want is compacted: a store
// loaded from disk holds its values as saved (indented), while Cache.Put
// stores, and bbrserve serves, the compact form.
func sameJSON(got, want []byte) bool {
	var buf bytes.Buffer
	return json.Compact(&buf, want) == nil && bytes.Equal(got, buf.Bytes())
}

// closedLoop runs op(0) … op(n-1) on workers() goroutines, each taking the
// next index when its previous request completes, and returns each
// request's latency in milliseconds, indexed by request.
func closedLoop(n int, op func(i int) time.Duration) []float64 {
	out := make([]float64, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = ms(op(i))
			}
		}()
	}
	wg.Wait()
	return out
}

// specJSON is a spec's wire form, as bbrserve receives it.
func specJSON(sp scenario.Spec) []byte {
	b, err := json.Marshal(sp)
	if err != nil {
		panic(err)
	}
	return b
}
