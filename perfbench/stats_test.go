package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

func TestPercentileTenBeyondRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input
	}
	cases := []struct {
		p    float64
		want float64
		ok   bool
	}{
		{0.50, 50, true}, // 50 beyond
		{0.90, 90, true}, // exactly 10 beyond
		{0.91, 91, false},
		{0.99, 99, false},
	}
	for _, c := range cases {
		got, ok := percentile(xs, c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..100, %v) = %v, %v; want %v, %v", c.p, got, ok, c.want, c.ok)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got, ok := percentile(big, 0.99); got != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", got, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestPctRoundsTakesInterquartileMeanOverRounds(t *testing.T) {
	round := func(scale float64) []float64 {
		xs := make([]float64, 1000)
		for i := range xs {
			xs[i] = scale * float64(i+1)
		}
		return xs
	}
	r := newReport(options{})
	r.pctRounds("p99", [][]float64{round(1), round(3), round(10), round(2)}, 0.99)
	if got, want := r.metrics["p99"].Value, (2*990+3*990)/2.0; got != want || len(r.failures) != 0 {
		t.Errorf("pctRounds = %v (failures %v); want the mean of the two middle rounds' p99 %v", got, r.failures, want)
	}
	if r.samples["p99"] != 4000 {
		t.Errorf("sample count %d, want 4000", r.samples["p99"])
	}
	r = newReport(options{})
	r.pctRounds("p99", [][]float64{round(1), round(1)[:500]}, 0.99)
	if _, ok := r.metrics["p99"]; ok || len(r.failures) != 1 {
		t.Errorf("a round with too few samples: metric recorded=%v, failures %v", ok, r.failures)
	}
}

func TestInterquartileMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{100, 1, 2, 3, 4, 5, 6, -50}, 3.5},
	} {
		if got := interquartileMean(c.xs); got != c.want {
			t.Errorf("interquartileMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}

func TestDigest(t *testing.T) {
	sum := func(parts ...[2]string) string {
		d := newDigest()
		for _, p := range parts {
			d.add(p[0], []byte(p[1]))
		}
		return d.sum()
	}
	a := sum([2]string{"x", "ab"}, [2]string{"y", "c"})
	if a != sum([2]string{"x", "ab"}, [2]string{"y", "c"}) {
		t.Error("digest is not deterministic")
	}
	if a == sum([2]string{"x", "a"}, [2]string{"y", "bc"}) {
		t.Error("moving a byte across a part boundary kept the digest")
	}
	if a == sum([2]string{"y", "c"}, [2]string{"x", "ab"}) {
		t.Error("reordering parts kept the digest")
	}
	if a == sum([2]string{"xa", "b"}, [2]string{"y", "c"}) {
		t.Error("moving a byte from data to label kept the digest")
	}
}

const pprofTop = `File: perfbench
Type: cpu
Duration: 2s, Total samples = 1000ms (50.00%)
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      600ms 60.00%  bbrnash/internal/eventsim.(*Loop).Run
     200ms 20.00% 60.00%      300ms 30.00%  bbrnash/internal/cc/bbr.(*BBR).OnAck
     100ms 10.00% 70.00%      100ms 10.00%  bbrnash/internal/cc.(*MaxFilter).Update
     100ms 10.00% 80.00%      150ms 15.00%  encoding/json.(*decodeState).object
      50ms  5.00% 85.00%       50ms  5.00%  net/http.(*conn).serve
      50ms  5.00% 90.00%       50ms  5.00%  bbrnash/internal/runner.MapCtx[go.shape.struct { Groups [][]bbrnash/internal/netsim.FlowStats }].func1
     100ms 10.00%   100%      100ms 10.00%  runtime.scanobject
         0     0%   100%       80ms  8.00%  runtime.gcBgMarkWorker
         0     0%   100%       20ms  2.00%  runtime.bgsweep
`

func TestPprofAggregation(t *testing.T) {
	rows := parsePprofTop(pprofTop)
	if len(rows) != 9 {
		t.Fatalf("parsed %d rows, want 9", len(rows))
	}
	if r := rows[7]; r.flat != 0 || r.cum != 80 || r.fn != "runtime.gcBgMarkWorker" {
		t.Errorf("zero-flat row parsed as %+v", r)
	}
	for fn, want := range map[string]string{
		"bbrnash/internal/eventsim.(*Loop).Run":                                   "bbrnash/internal/eventsim",
		"bbrnash/internal/cc/bbr.(*BBR).OnAck":                                    "bbrnash/internal/cc/bbr",
		"runtime.scanobject":                                                      "runtime",
		"encoding/json.(*decodeState).object":                                     "encoding/json",
		"bbrnash/internal/runner.MapCtx[go.shape.struct { X a/b.C }].func1":       "bbrnash/internal/runner",
		"bbrnash/internal/exp.(*Scale).Sweep.func1":                               "bbrnash/internal/exp",
		"bbrnash/internal/runner.Protect[go.shape.struct { bbrnash/internal/x }]": "bbrnash/internal/runner",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
	shares := cpuShares(rows)
	want := map[string]float64{
		"eventsim": 0.4, "netsim": 0, "cc": 0.3, "fluid": 0,
		"encoding_json": 0.1, "net_http": 0.05, "gc": 0.1,
	}
	names := make([]string, 0, len(shares))
	for name := range shares {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(shares) != len(want) {
		t.Fatalf("shares for %v, want %d layers", names, len(want))
	}
	for name, w := range want {
		if math.Abs(shares[name]-w) > 1e-9 {
			t.Errorf("share %s = %v, want %v", name, shares[name], w)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := withSelfTimes([]span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 90},
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
	})
	want := map[string]int64{"root": 100 - 50 - 10, "a": 30 - 5, "b": 30, "c": 10, "leaf": 5}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("self(%s) = %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

// TestBenchmarkJSONNamesMetrics checks that BENCHMARK.json at the
// repository root names workloads the program has and exactly the metrics
// it produces.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the program lacks", w.Name)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program has %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayerMetrics[i].name || m.Unit != perLayerMetrics[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s, program %s/%s", i, m.Name, m.Unit, perLayerMetrics[i].name, perLayerMetrics[i].unit)
		}
	}
	for i, m := range b.EndToEnd {
		if i >= len(endToEndMetrics) || m.Name != endToEndMetrics[i].name || m.Unit != endToEndMetrics[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s/%s does not match the program", i, m.Name, m.Unit)
		}
	}
}
