package fluid

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"bbrnash/internal/scenario"
	"bbrnash/internal/units"
)

var updateBitsGolden = flag.Bool("update-fluid-bits-golden", false,
	"rewrite testdata/bits.golden from the current integrator")

// bitsSpecs are the scenarios the bit-level golden pins: the adoption
// dynamics' 9-group payoff shape, Reno, empty groups, delayed starts, every
// fault mechanism, buffers from shallow to very deep, and a chain that
// reduces to its bottleneck. Together they reach every branch of advance,
// grow and backoff.
func bitsSpecs() []struct {
	name string
	sp   scenario.Spec
} {
	const rtt = 40 * time.Millisecond
	mix := func(groups ...scenario.Group) scenario.Spec {
		capacity := 40 * units.Mbps
		return scenario.Spec{
			Capacity: capacity,
			Buffer:   units.BufferBytes(capacity, rtt, 6),
			Duration: 2 * time.Minute,
			Backend:  scenario.BackendFluid,
			Groups:   groups,
		}
	}
	bbr := func(n int) scenario.Group { return scenario.Group{Algorithm: "bbr", Count: n, RTT: rtt} }
	cubic := func(n int) scenario.Group { return scenario.Group{Algorithm: "cubic", Count: n, RTT: rtt} }
	reno := func(n int) scenario.Group { return scenario.Group{Algorithm: "reno", Count: n, RTT: rtt} }
	withBuffer := func(bdp float64) scenario.Spec {
		sp := mix(bbr(2), cubic(2))
		sp.Buffer = units.BufferBytes(sp.Capacity, rtt, bdp)
		return sp
	}
	withFaults := func(f scenario.Faults) scenario.Spec {
		sp := mix(bbr(2), cubic(2), reno(1))
		sp.Faults = f
		return sp
	}

	delayed := mix(bbr(2), cubic(2), reno(1))
	delayed.Groups[1].Start = 5 * time.Second
	delayed.Groups[0].Start = 12500 * time.Millisecond

	chain := mix(bbr(2), cubic(2))
	chain.Capacity, chain.Buffer = 0, 0
	chain.Links = []scenario.Link{
		{Name: "access", Capacity: 100 * units.Mbps, Buffer: 1 << 20},
		{Name: "core", Capacity: 40 * units.Mbps, Buffer: units.BufferBytes(40*units.Mbps, rtt, 4)},
		{Name: "edge", Capacity: 60 * units.Mbps, Buffer: 1 << 19},
	}
	for gi := range chain.Groups {
		chain.Groups[gi].Path = []string{"access", "core", "edge"}
	}

	return []struct {
		name string
		sp   scenario.Spec
	}{
		{"adopt9", adoptShapeSpec()},
		{"reno", mix(reno(3), bbr(1))},
		{"zero-count", mix(bbr(0), cubic(2), scenario.Group{Algorithm: "copa", RTT: rtt}, reno(0), bbr(1))},
		{"delayed-start", delayed},
		{"loss", withFaults(scenario.Faults{LossRate: 0.001})},
		{"flap", withFaults(scenario.Faults{FlapPeriod: 3 * time.Second, FlapDepth: 0.35})},
		{"burst", withFaults(scenario.Faults{BurstEvery: 7 * time.Second, BurstLen: 12})},
		{"buf0.5", withBuffer(0.5)},
		{"buf1", withBuffer(1)},
		{"buf3", withBuffer(3)},
		{"buf15", withBuffer(15)},
		{"buf40", withBuffer(40)},
		{"chain", chain},
	}
}

// adoptShapeSpec is the payoff spec shape the adoption dynamics simulate
// by default on the fluid backend: 100 Mbps, 5 BDP at 80 ms, three RTT
// classes × cubic/reno/bbr, two minutes.
func adoptShapeSpec() scenario.Spec {
	capacity := 100 * units.Mbps
	counts := [3][3]int{{3, 2, 4}, {2, 3, 1}, {4, 1, 2}}
	var groups []scenario.Group
	for c, rtt := range []time.Duration{20 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond} {
		for a, alg := range []string{"cubic", "reno", "bbr"} {
			groups = append(groups, scenario.Group{Algorithm: alg, Count: counts[c][a], RTT: rtt})
		}
	}
	return scenario.Spec{
		Capacity: capacity,
		Buffer:   units.BufferBytes(capacity, 80*time.Millisecond, 5),
		Duration: 2 * time.Minute,
		Backend:  scenario.BackendFluid,
		Groups:   groups,
	}
}

// hx is a float64's exact hexadecimal text.
func hx(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// dumpBits renders a finished model's whole integrator state and its
// Stats output with every float64 in exact hexadecimal, so any change to
// any bit of the trajectory shows as a line diff.
func dumpBits(m *Model) string {
	var b strings.Builder
	for gi, g := range m.groups {
		fmt.Fprintf(&b, "g%d %s n=%s w=%s wmax=%s epoch=%s lastBackoff=%s btlbw=%s rttEst=%s winMin=%s q=%s lossAcc=%s\n",
			gi, g.alg, hx(g.count), hx(g.w), hx(g.wmax), hx(g.epoch), hx(g.lastBackoff),
			hx(g.btlbw), hx(g.rttEst), hx(g.winMin), hx(g.q), hx(g.lossAcc))
		fmt.Fprintf(&b, "g%d sent=%s delivered=%s dropped=%s rttAcc=%s activeTime=%s rttMin=%s qAcc=%s qMin=%s qMax=%s\n",
			gi, hx(g.sent), hx(g.delivered), hx(g.dropped), hx(g.rttAcc), hx(g.activeTime),
			hx(g.rttMin), hx(g.qAcc), hx(g.qMin), hx(g.qMax))
	}
	fmt.Fprintf(&b, "model step=%d grantedN=%d qIntAcc=%s qMaxSeen=%s delayAcc=%s delayMax=%s deliveredTotal=%s capIntAcc=%s\n",
		m.step, m.grantedN, hx(m.qIntAcc), hx(m.qMaxSeen), hx(m.delayAcc), hx(m.delayMax),
		hx(m.deliveredTotal), hx(m.capIntAcc))
	fmt.Fprintf(&b, "model overflowPkts=%s injectedBytes=%s burstPkts=%d burstsDone=%d probeStarts=%d probeUntil=%s probing=%t wasProbing=%t\n",
		hx(m.overflowPkts), hx(m.injectedBytes), m.burstPkts, m.burstsDone, m.probeStarts,
		hx(m.probeUntil), m.probing, m.wasProbing)
	gs, link := m.Stats()
	for _, flows := range gs {
		for _, f := range flows {
			b.WriteString("flow " + fieldBits(f) + "\n")
		}
	}
	b.WriteString("link " + fieldBits(link) + "\n")
	return b.String()
}

// fieldBits prints a flat struct's fields, floats in exact hexadecimal.
func fieldBits(s any) string {
	v := reflect.ValueOf(s)
	parts := make([]string, v.NumField())
	for i := range parts {
		f := v.Field(i)
		var val string
		switch f.Kind() {
		case reflect.Float64:
			val = hx(f.Float())
		case reflect.Int, reflect.Int64:
			val = strconv.FormatInt(f.Int(), 10)
		case reflect.String:
			val = strconv.Quote(f.String())
		default:
			panic(fmt.Sprintf("fieldBits: unhandled kind %s", f.Kind()))
		}
		parts[i] = v.Type().Field(i).Name + "=" + val
	}
	return strings.Join(parts, " ")
}

// TestGoldenBits pins every bit of the integrator's end state — each
// group's window, BBR, queue and accumulator fields, the link
// accumulators and the full Stats output — over bitsSpecs. The step kernel
// may be restructured for speed only if this stays byte-identical: a
// difference in any bit means the trajectory changed, every fluid cache
// entry is stale and scenario.KeyVersion would have to be bumped.
func TestGoldenBits(t *testing.T) {
	var b strings.Builder
	for _, tc := range bitsSpecs() {
		m, err := New(tc.sp)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		m.Run(tc.sp.Duration)
		fmt.Fprintf(&b, "== %s\n%s", tc.name, dumpBits(m))
	}
	got := b.String()
	path := filepath.Join("testdata", "bits.golden")
	if *updateBitsGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	shown := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w && shown < 10 {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			shown++
		}
	}
	t.Errorf("fluid end state drifted from %s", path)
}
