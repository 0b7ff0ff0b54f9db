package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bbrnash/internal/rng"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/serve"
	"bbrnash/internal/units"
)

// The serve and journal layers: the traced run of adopt_fluid fills a store
// through bbrserve, in-process on 127.0.0.1 with an on-disk cache and
// journal, then plays a fixed-rate open-loop schedule over it — mostly
// repeats of the warm keys, the rest fresh seeds.

const (
	warmKeys    = 128
	fixedRate   = 400.0 // requests per second in the open-loop phase
	fixedFresh  = 40    // one open-loop request in fixedFresh is fresh
	requestWait = 30 * time.Second
)

// serveSpec is spec i of a kind ("warm" or "fresh"): a ten-flow BBR/CUBIC
// mix on the fluid backend. Warm specs vary the mix and the buffer depth;
// fresh specs all share one shape, five BBR against five CUBIC flows at
// 2 BDP, so every fresh request of the open loop costs the same simulation
// and only its seed differs.
func serveSpec(seed uint64, kind string, i int) scenario.Spec {
	c := 100 * units.Mbps
	bdp, nx := 2.0, 5
	if kind != "fresh" {
		bdp, nx = []float64{1, 2, 5, 10}[i%4], 1+i%9
	}
	sp := scenario.Mix("bbr", nx, 10-nx, c, units.BufferBytes(c, paperRTT, bdp), paperRTT, flowDuration)
	sp.Backend = scenario.BackendFluid
	sp.Seed = seedFor(seed, fmt.Sprint(kind, i))
	return sp
}

// serveStoreDir holds the store bbrserve runs over in a traced run.
func serveStoreDir(o options) string {
	return filepath.Join(workDir, "serve", fmt.Sprintf("seed%d", o.seed))
}

// service is one running bbrserve instance over a store.
type service struct {
	cache   *runner.Cache
	journal *runner.Journal
	srv     *serve.Server
	http    *http.Server
	url     string
	served  chan error
}

// openService opens the store in dir, replays its journal, starts the
// server on an ephemeral 127.0.0.1 port and waits for /readyz. replay is
// the time OpenJournal took.
func openService(dir string) (svc *service, replay time.Duration, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	svc = &service{}
	if svc.cache, err = runner.OpenCache(filepath.Join(dir, "cache.json"), scenario.KeyVersion); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	svc.journal, err = runner.OpenJournal(filepath.Join(dir, "journal.jsonl"), scenario.KeyVersion)
	replay = time.Since(t0)
	if err != nil {
		svc.cache.Close()
		return nil, 0, err
	}
	svc.srv = serve.New(serve.Config{Cache: svc.cache, Journal: svc.journal, Workers: workers()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.close(false)
		return nil, 0, err
	}
	svc.url = "http://" + ln.Addr().String()
	svc.http = &http.Server{Handler: svc.srv.Handler()}
	svc.served = make(chan error, 1)
	go func() { svc.served <- svc.http.Serve(ln) }()
	resp, err := http.Get(svc.url + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz answered %s", resp.Status)
		}
	}
	if err != nil {
		svc.close(false)
		return nil, 0, err
	}
	return svc, replay, nil
}

// close drains the server, stops the listener and waits for it, optionally
// persists the cache, and releases the store.
func (s *service) close(save bool) error {
	var errs []error
	if s.srv != nil {
		errs = append(errs, s.srv.Drain(context.Background()))
	}
	if s.http != nil {
		errs = append(errs, s.http.Shutdown(context.Background()))
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if save {
		errs = append(errs, s.cache.Save())
	}
	errs = append(errs, s.journal.Close(), s.cache.Close())
	return errors.Join(errs...)
}

// newClient is an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: requestWait,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post POSTs one spec to /run and reads a 200 answer's body into buf.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) error {
	resp, err := c.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// submit POSTs one spec to /run and returns the stored result bytes from
// the envelope.
func submit(c *http.Client, url string, body []byte, key string) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := post(c, url, body, &buf); err != nil {
		return nil, err
	}
	var env struct {
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		return nil, err
	}
	if env.Key != key {
		return nil, fmt.Errorf("answered key %q for %q", env.Key, key)
	}
	return env.Result, nil
}

// envelope is the body bbrserve answers for a stored result: the
// {key, result} object json.Encoder writes, newline included.
func envelope(key string, result []byte) []byte {
	return append(append(append(append([]byte(`{"key":`), mustJSON(key)...), `,"result":`...), result...), "}\n"...)
}

// warmStore starts with an empty store in dir, submits the warm specs
// fresh over workers() closed-loop connections, and persists the store. It
// returns each warm key's bytes.
func warmStore(o options, r *report, dir string) ([][]byte, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	svc, _, err := openService(dir)
	if err != nil {
		return nil, err
	}
	c := newClient(workers())
	defer c.CloseIdleConnections()
	bodies := make([][]byte, warmKeys)
	var mu sync.Mutex
	closedLoop(warmKeys, func(i int) time.Duration {
		sp := serveSpec(o.seed, "warm", i)
		got, err := submit(c, svc.url, specJSON(sp), sp.Key())
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			r.fail("warm submission %d: %v", i, err)
		}
		bodies[i] = got
		return 0
	})
	r.attempted += warmKeys
	return bodies, svc.close(true)
}

// request is one scheduled submission of the open loop.
type request struct {
	due  time.Time
	sent time.Time
	warm int // warm key index, or -1 for a fresh spec
	key  string
	body []byte
	err  error
}

// schedule lays fixedRate×serveLayersPhase requests at constant spacing
// 1/fixedRate — an open loop at a fixed offered rate. Every fixedFresh-th
// request is a fresh spec; the rest repeat seeded uniform draws from the
// warm keys.
func schedule(o options) []*request {
	src := rng.New(seedFor(o.seed, "schedule"))
	reqs := make([]*request, int(fixedRate*serveLayersPhase.Seconds()))
	fresh := 0
	for i := range reqs {
		rq := &request{warm: -1}
		var sp scenario.Spec
		if i%fixedFresh == fixedFresh-1 {
			sp = serveSpec(o.seed, "fresh", fresh)
			fresh++
		} else {
			rq.warm = int(src.Uint64() % warmKeys)
			sp = serveSpec(o.seed, "warm", rq.warm)
		}
		rq.key, rq.body = sp.Key(), specJSON(sp)
		rq.due = time.Time{}.Add(time.Duration(float64(i) / fixedRate * float64(time.Second)))
		reqs[i] = rq
	}
	return reqs
}

// loadClients are the generator's connections: one carries cache-hit
// traffic and one fresh submissions, so a hit never queues behind a
// simulation on the client side. Two connections in all, at most nproc.
type loadClients struct{ hit, fresh *http.Client }

func newLoadClients() loadClients {
	return loadClients{hit: newClient(1), fresh: newClient(1)}
}

func (l loadClients) close() {
	l.hit.CloseIdleConnections()
	l.fresh.CloseIdleConnections()
}

// runPhase plays reqs open-loop: a generator releases each request at its
// due time into its class's queue, which that class's connection drains,
// so a backlog waits in the queue and not in the generator. Hit answers
// must equal the warm key's stored bytes. It returns the p99 of generator
// lateness (release minus due time) in milliseconds.
func runPhase(o options, r *report, lc loadClients, url string, reqs []*request, warm [][]byte, tr *tracer) float64 {
	start := time.Now().Add(5 * time.Millisecond)
	for _, rq := range reqs {
		rq.due = start.Add(rq.due.Sub(time.Time{}))
	}
	hits, fresh := make(chan *request, len(reqs)), make(chan *request, len(reqs))
	var wg sync.WaitGroup
	// Hit answers are compared whole against the envelope of the warm
	// key's bytes, without decoding, to keep the generator's own work
	// small.
	want := make([][]byte, len(warm))
	for i, b := range warm {
		want[i] = envelope(serveSpec(o.seed, "warm", i).Key(), b)
	}
	drain := func(queue chan *request, c *http.Client, name string) {
		defer wg.Done()
		var buf bytes.Buffer
		for rq := range queue {
			id := tr.begin(name, 0)
			if rq.warm >= 0 {
				rq.err = post(c, url, rq.body, &buf)
				if rq.err == nil && !bytes.Equal(buf.Bytes(), want[rq.warm]) {
					rq.err = fmt.Errorf("hit on warm key %d answered different bytes than its fresh run", rq.warm)
				}
			} else {
				_, rq.err = submit(c, url, rq.body, rq.key)
			}
			tr.end(id)
		}
	}
	wg.Add(2)
	go drain(hits, lc.hit, "POST /run hit")
	go drain(fresh, lc.fresh, "POST /run fresh")
	for _, rq := range reqs {
		if d := time.Until(rq.due); d > 0 {
			time.Sleep(d)
		}
		rq.sent = time.Now()
		if rq.warm >= 0 {
			hits <- rq
		} else {
			fresh <- rq
		}
	}
	close(hits)
	close(fresh)
	wg.Wait()
	var lateMS []float64
	for _, rq := range reqs {
		lateMS = append(lateMS, ms(rq.sent.Sub(rq.due)))
		if rq.err != nil {
			r.fail("request: %v", rq.err)
		}
	}
	r.attempted += len(reqs)
	late, _ := percentile(lateMS, 0.99)
	return late
}

// serveLayersPhase is the length of serveLayers' open-loop phase.
const serveLayersPhase = 5 * time.Second

// serveCPULayers are the cpu_share layers reported for the serve window.
var serveCPULayers = []string{"encoding_json", "net_http", "gc"}

// serveLayers measures the serve and journal layers over the warm store in
// dir, under a CPU profile of their own whose shares are reported as
// serve.cpu_share.*: the journal replay when the store opens, a fixed-rate
// open-loop phase with a span per request, the server's counters, the
// in-process handler on cache hits, and Journal.Record with its fsync on a
// scratch journal.
func serveLayers(t *tracedRun, dir string, warm [][]byte) error {
	o, r := t.o, t.r
	if err := t.profile("serve"); err != nil {
		return err
	}
	svc, replay, err := openService(dir)
	if err != nil {
		return err
	}
	r.metric("runner.journal_replay_ms", ms(replay), "ms")
	lc := newLoadClients()
	defer lc.close()
	late := runPhase(o, r, lc, svc.url, schedule(o), warm, t.tr)
	st := svc.srv.Stats()
	r.metric("serve.server_latency_ms", float64(st.LatencyMeanNS)/1e6, "ms")
	r.metric("serve.shed", float64(st.Shed), "count")
	r.metric("serve.deduped", float64(st.Deduped), "count")
	r.metric("serve.instant", float64(st.Instant), "count")
	r.metric("serve.worker_restarts", float64(st.WorkerRestarts), "count")
	r.metric("serve.gen_late_p99_ms", late, "ms")
	r.metric("serve.handler_hit_us", handlerProbe(o, svc.srv), "us")
	if err := svc.close(false); err != nil {
		return err
	}
	record, err := journalProbe(dir+"-scratch", o, warm)
	if err != nil {
		return err
	}
	r.metric("runner.journal_record_us", record, "us")
	shares, err := t.stopProfile()
	if err != nil {
		return err
	}
	for _, name := range serveCPULayers {
		r.metric("serve.cpu_share."+name, shares[name], "fraction")
	}
	return nil
}

// journalProbe records every warm result in a fresh journal under dir and
// returns the median microseconds per Record, fsync included.
func journalProbe(dir string, o options, warm [][]byte) (float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	j, err := runner.OpenJournal(filepath.Join(dir, "journal.jsonl"), scenario.KeyVersion)
	if err != nil {
		return 0, err
	}
	var us []float64
	for i, b := range warm {
		key := serveSpec(o.seed, "warm", i).Key()
		t0 := time.Now()
		if err := j.Record(key, json.RawMessage(b)); err != nil {
			j.Close()
			return 0, err
		}
		us = append(us, usSince(t0))
	}
	return median(us), j.Close()
}

// handlerProbe serves warm-key submissions through the handler in-process,
// with no socket, and returns the median microseconds per hit.
func handlerProbe(o options, srv *serve.Server) float64 {
	h := srv.Handler()
	var us []float64
	for rep := 0; rep < 10; rep++ {
		for i := 0; i < warmKeys; i++ {
			body := specJSON(serveSpec(o.seed, "warm", i))
			req := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body))
			w := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(w, req)
			us = append(us, usSince(t0))
		}
	}
	return median(us)
}
