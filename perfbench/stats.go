package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer than ten makes the tail a handful of anecdotes.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether at least minBeyond samples lie strictly beyond it. xs need not
// be sorted and is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// median is the middle value (mean of the two middle values for even
// counts); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interquartileMean is the mean of the middle half of xs: the values left
// once the lowest and highest quarter (n/4 values each) are dropped; 0 for
// no samples. Unlike the median it moves smoothly when the share of values
// in each of two clusters changes, and unlike the mean it ignores outliers.
func interquartileMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// digest hashes a workload's outputs as a sequence of labelled parts. Each
// part is length-prefixed, so moving bytes across a part boundary changes
// the sum.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(label string, data []byte) {
	var n [8]byte
	for _, b := range [][]byte{[]byte(label), data} {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		d.h.Write(n[:])
		d.h.Write(b)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// pprofRow is one line of `go tool pprof -top -unit=ms`: flat and
// cumulative milliseconds of one function.
type pprofRow struct {
	flat, cum float64
	fn        string
}

// parsePprofTop reads the table `go tool pprof -top -unit=ms` prints,
// skipping the header lines. pprof prints a zero without its unit.
func parsePprofTop(text string) []pprofRow {
	msValue := func(s string) (float64, bool) {
		if s == "0" {
			return 0, true
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
		return v, err == nil && strings.HasSuffix(s, "ms")
	}
	var rows []pprofRow
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 {
			continue
		}
		flat, ok1 := msValue(f[0])
		cum, ok2 := msValue(f[3])
		if !ok1 || !ok2 {
			continue
		}
		fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		rows = append(rows, pprofRow{flat: flat, cum: cum, fn: fn})
	}
	return rows
}

// packageOf returns the import path of a profiled function name such as
// "bbrnash/internal/eventsim.(*Loop).Run" or
// "bbrnash/internal/runner.MapCtx[...].func1".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	dir := ""
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		dir, fn = fn[:i+1], fn[i+1:]
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return dir + fn
}

// cpuLayers maps each cpu_share metric to the packages whose flat time it
// sums; a trailing "/" matches every package below that path.
var cpuLayers = []struct {
	name string
	pkgs []string
}{
	{"eventsim", []string{"bbrnash/internal/eventsim"}},
	{"netsim", []string{"bbrnash/internal/netsim"}},
	{"cc", []string{"bbrnash/internal/cc", "bbrnash/internal/cc/"}},
	{"fluid", []string{"bbrnash/internal/fluid"}},
	{"encoding_json", []string{"encoding/json"}},
	{"net_http", []string{"net/http", "net/http/"}},
}

// gcRoots are the runtime entry points of garbage-collection work; their
// cumulative time is the profile's GC share.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// cpuShares aggregates profile rows into the share of all sampled CPU time
// spent in each layer of cpuLayers, plus "gc".
func cpuShares(rows []pprofRow) map[string]float64 {
	total := 0.0
	for _, r := range rows {
		total += r.flat
	}
	out := make(map[string]float64, len(cpuLayers)+1)
	for _, l := range cpuLayers {
		out[l.name] = 0
	}
	out["gc"] = 0
	if total == 0 {
		return out
	}
	for _, r := range rows {
		pkg := packageOf(r.fn)
		for _, l := range cpuLayers {
			for _, p := range l.pkgs {
				if pkg == p || (strings.HasSuffix(p, "/") && strings.HasPrefix(pkg, p)) {
					out[l.name] += r.flat / total
				}
			}
		}
		for _, g := range gcRoots {
			if r.fn == g {
				out["gc"] += r.cum / total
			}
		}
	}
	return out
}
