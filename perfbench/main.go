// Command perfbench is bbrnash's benchmark. It drives the system from
// outside, through the same public functions the CLIs call, and runs one
// workload per process:
//
//	perfbench --workload sweep_packet --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints every end-to-end metric; with --trace 1 it makes
// a separate traced run that prints the per-layer metrics and writes spans
// and a CPU profile under .bench_build/. Either way the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 1200, "failed": 0, "metrics": {...}}
//
// `perfbench compare a.json b.json` compares two saved results and refuses
// when they were measured on different hosts. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose output digests are recorded in
// digests.json.
const defaultSeed = 1

// workDir holds everything a run writes: results, spans, profiles and
// on-disk stores. It is relative to the directory the benchmark runs in.
const workDir = ".bench_build"

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// workload is one benchmark input set: a library pass run end to end and
// the probes around it (batch.go).
type workload struct {
	name string
	batchWorkload
}

var workloads = []workload{
	{"sweep_packet", batchWorkload{pass: sweepPass, packet: true}},
	{"ne_walk", batchWorkload{pass: nePass, probeUnits: neProbeUnits, packet: true}},
	{"adopt_fluid", batchWorkload{pass: adoptPass}},
}

// endToEndMetrics lists every metric an untraced run prints, with its
// unit; perLayerMetrics (layers.go) does the same for a traced run.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"hit_p50_ms", "ms"},
	{"hit_p90_ms", "ms"},
	{"fresh_p50_ms", "ms"},
	{"fresh_p90_ms", "ms"},
	{"sustained_per_s", "1/s"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:])
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "workload to run")
		seed      = fs.Uint64("seed", defaultSeed, "workload seed")
		seconds   = fs.Int("seconds", 30, "measurement budget in seconds")
		trace     = fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
		setupOnly = fs.Bool("setup-only", false, "perform the workload's set-up, print ready, and exit (used to time set-up)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	o := options{workload: w.name, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if *setupOnly {
		release, err := batchSetup(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println("ready")
		release()
		return 0
	}
	if err := os.MkdirAll(filepath.Join(workDir, "results"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := newReport(o)
	fp := fingerprint()
	fmt.Printf("fingerprint %s\n", mustJSON(fp))
	run := runBatch
	if o.trace {
		run = traceBatch
	}
	if err := run(w.batchWorkload, o, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !o.trace {
		r.metric("peak_rss_mb", peakRSSMB(), "MB")
	}
	return r.finish(fp)
}

// setupRuns is how many times set-up is timed in a run; the median is
// reported.
const setupRuns = 31

// measureSetup starts this binary n times in --setup-only mode and times
// each from start until it reports ready: process start, package
// initialisation and the workload's own set-up. It returns the times in
// seconds.
func measureSetup(o options, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var ts []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "--setup-only", "--workload", o.workload, "--seed", fmt.Sprint(o.seed))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, readErr := bufio.NewReader(out).ReadString('\n')
		took := time.Since(start)
		io.Copy(io.Discard, out)
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up run: %w", err)
		}
		if readErr != nil || strings.TrimSpace(line) != "ready" {
			return nil, fmt.Errorf("set-up run printed %q", line)
		}
		ts = append(ts, took.Seconds())
	}
	return ts, nil
}

// peakRSSMB reads the process's peak resident set size from
// /proc/self/status (Linux); 0 where unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's metrics, operation counts, failures and
// output digest.
type report struct {
	o         options
	metrics   map[string]metricValue
	order     []string
	samples   map[string]int
	attempted int
	failures  []string
	digest    string
}

func newReport(o options) *report {
	return &report{o: o, metrics: map[string]metricValue{}, samples: map[string]int{}}
}

func (r *report) metric(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// pct records a percentile metric of xs (milliseconds) with its sample
// count. A percentile with fewer than ten samples beyond it is not a
// measurement; the run fails rather than print it.
func (r *report) pct(name string, xs []float64, p float64) {
	v, ok := percentile(xs, p)
	r.samples[name] = len(xs)
	if !ok {
		r.fail("%s: %d samples leave fewer than %d beyond the percentile", name, len(xs), minBeyond)
		return
	}
	r.metric(name, v, "ms")
}

// pctRounds records the interquartile mean over rounds of each round's
// percentile, with the total sample count. Every round must satisfy pct's
// rule.
func (r *report) pctRounds(name string, rounds [][]float64, p float64) {
	var vs []float64
	n := 0
	for i, xs := range rounds {
		v, ok := percentile(xs, p)
		if !ok {
			r.fail("%s: round %d's %d samples leave fewer than %d beyond the percentile", name, i, len(xs), minBeyond)
			return
		}
		vs = append(vs, v)
		n += len(xs)
	}
	r.samples[name] = n
	r.metric(name, interquartileMean(vs), "ms")
}

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// checkDigest records the output digest, fails the run when it differs
// from another run of the same inputs (other != ""), and, for the default
// seed, when it differs from the value recorded in digests.json.
func (r *report) checkDigest(got, other string) {
	r.digest = got
	fmt.Printf("digest %s %s\n", r.o.workload, got)
	if other != "" && other != got {
		r.fail("digest %s differs from the same run's other digest %s", got, other)
	}
	if r.o.seed != defaultSeed {
		return
	}
	want, err := recordedDigest(r.o.workload)
	switch {
	case err != nil:
		r.fail("reading recorded digest: %v", err)
	case want != got:
		r.fail("digest %s differs from recorded %s for seed %d", got, want, defaultSeed)
	}
}

// recordedDigest reads the default-seed digest of a workload from
// digests.json beside the benchmark's sources.
func recordedDigest(name string) (string, error) {
	data, err := os.ReadFile(filepath.Join("perfbench", "digests.json"))
	if err != nil {
		return "", err
	}
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return "", err
	}
	d, ok := m[name]
	if !ok {
		return "", fmt.Errorf("no digest recorded for %s", name)
	}
	return d, nil
}

// savedResult is the file written for every run, used by compare.
type savedResult struct {
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Trace       bool                   `json:"trace"`
	Fingerprint hostFingerprint        `json:"fingerprint"`
	Digest      string                 `json:"digest"`
	Samples     map[string]int         `json:"samples"`
	Failures    []string               `json:"failures"`
	Metrics     map[string]metricValue `json:"metrics"`
}

// finish prints the metrics and failures, saves the result file and prints
// the final JSON line. It returns the exit code.
func (r *report) finish(fp hostFingerprint) int {
	for _, name := range r.order {
		m := r.metrics[name]
		extra := ""
		if n, ok := r.samples[name]; ok {
			extra = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Printf("%-32s %14.6g %s%s\n", name, m.Value, m.Unit, extra)
	}
	want := endToEndMetrics
	if r.o.trace {
		want = perLayerMetrics
	}
	for _, m := range want {
		if got, ok := r.metrics[m.name]; !ok || got.Unit != m.unit {
			r.fail("metric %s (%s) was not measured", m.name, m.unit)
		}
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	failed := len(r.failures)
	if failed > attempted {
		attempted = failed
	}
	fmt.Printf("%-32s %14.6g (%d of %d operations)\n", "failed_frac", float64(failed)/float64(attempted), failed, attempted)
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	saved := savedResult{
		Workload: r.o.workload, Seed: r.o.seed, Trace: r.o.trace, Fingerprint: fp,
		Digest: r.digest, Samples: r.samples, Failures: r.failures, Metrics: r.metrics,
	}
	path := filepath.Join(workDir, "results", fmt.Sprintf("%s-seed%d-trace%v.json", r.o.workload, r.o.seed, r.o.trace))
	if err := os.WriteFile(path, append(mustJSON(saved), '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(mustJSON(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   r.metrics,
	})))
	if failed > 0 {
		return 1
	}
	return 0
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// hostFingerprint identifies the host and the code a result was measured
// on. Host fields must match for two results to be compared.
type hostFingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	GitDirty   string `json:"git_dirty"`
}

func (f hostFingerprint) host() string {
	return fmt.Sprintf("%s|%d|%d|%s", f.CPU, f.NProc, f.GOMAXPROCS, f.GoVersion)
}

func fingerprint() hostFingerprint {
	fp := hostFingerprint{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     "none",
		GitDirty:   "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout without git metadata (an exported tree) keeps "none".
	if sha, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.GitSHA = strings.TrimSpace(string(sha))
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			fp.GitDirty = fmt.Sprint(len(bytes.TrimSpace(st)) > 0)
		}
	}
	return fp
}

// compareCmd prints the relative change of every metric between two saved
// results, refusing results from different hosts.
func compareCmd(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare base.json new.json")
		return 2
	}
	var rs [2]savedResult
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &rs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	if err := comparable(rs[0], rs[1]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: refusing to compare:", err)
		return 1
	}
	names := make([]string, 0, len(rs[0].Metrics))
	for name := range rs[0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a, b := rs[0].Metrics[name], rs[1].Metrics[name]
		change := "n/a"
		if a.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(b.Value-a.Value)/a.Value)
		}
		fmt.Printf("%-32s %14.6g %14.6g %8s %s\n", name, a.Value, b.Value, change, a.Unit)
	}
	return 0
}

func comparable(a, b savedResult) error {
	if a.Fingerprint.host() != b.Fingerprint.host() {
		return fmt.Errorf("host fingerprints differ: %q vs %q", a.Fingerprint.host(), b.Fingerprint.host())
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return errors.New("results are of different workloads or run kinds")
	}
	return nil
}
