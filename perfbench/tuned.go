package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/rng"
	"repro/internal/runstate"
	"repro/internal/server"
	"repro/internal/space"
	"repro/internal/tree"
)

// Tuned-http settings: the service's own defaults for trees, a small
// pool, and a checkpoint after every iteration.
const (
	tunedProblem = "atax"
	tunedPool    = 2000
	tunedNInit   = 10
	tunedNBatch  = 5
	tunedNMax    = 60
	// tunedAttempts bounds how often a client sends one request while
	// the service answers it non-2xx.
	tunedAttempts = 3
)

// tunedHTTP serves a server.Manager with a CheckpointDir over loopback
// HTTP. One closed-loop client runs sessions back to back: create,
// ask/tell to NMax with labels from the problem's evaluator, delete. A
// unit is one session.
type tunedHTTP struct {
	seed    uint64
	p       bench.Problem
	spec    []server.ParamSpec
	test    *testSet
	dir     string
	ckptDir string
	keepDir string
	srv     *http.Server
	served  chan struct{}
	base    string
	client  *http.Client

	mu    sync.Mutex
	sizes []float64 // final checkpoint bytes per session
	lat   map[string][]float64
	count tunedCounts
	stats [2]server.Stats
}

// tunedCounts are the clients' own request and label counts.
type tunedCounts struct{ asks, tells, labels, sessions int }

func (w *tunedHTTP) setup(ctx context.Context, o runOptions) error {
	w.seed = o.seed
	p, err := bench.ByName(tunedProblem)
	if err != nil {
		return err
	}
	w.p = p
	w.spec = server.SpecFromSpace(p.Space())
	if w.test, err = newTestSet(ctx, p, rng.Mix(o.seed, 1<<41)); err != nil {
		return err
	}
	if w.dir, err = os.MkdirTemp(o.dir, "tuned-"); err != nil {
		return err
	}
	w.keepDir = filepath.Join(w.dir, "kept")
	w.ckptDir = filepath.Join(w.dir, "ckpt")
	for _, d := range []string{w.keepDir, w.ckptDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			return err
		}
	}
	m := server.NewManager(server.Config{CheckpointDir: w.ckptDir})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.srv = &http.Server{Handler: m.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.srv.Serve(ln)
	}()
	w.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
	}
	// Warm-up: one full session.
	w.lat = map[string][]float64{}
	return w.session(ctx, math.MaxUint32, nil, newPhase())
}

func (w *tunedHTTP) close() {
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = w.srv.Shutdown(ctx)
		cancel()
		<-w.served
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// call makes one API request and decodes a 2xx body into out. It
// records the round trip under the span layer "server".
func (w *tunedHTTP) call(ctx context.Context, method, path string, in, out any, tr *tracer) (time.Duration, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, body)
	if err != nil {
		return 0, err
	}
	id := tr.begin(0, "server", method+" "+routeOf(path))
	start := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		tr.end(id)
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	tr.end(id)
	if err != nil {
		return d, err
	}
	if resp.StatusCode/100 != 2 {
		return d, &statusError{fmt.Sprintf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))}
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return d, fmt.Errorf("%s %s: decoding: %w", method, path, err)
		}
	}
	return d, nil
}

// statusError is a non-2xx answer from the service.
type statusError struct{ msg string }

func (e *statusError) Error() string { return e.msg }

// request makes one API call for a client, sending it again while the
// service answers non-2xx, up to tunedAttempts times. Every call the
// clients make is safe to repeat: an ask is idempotent, a retransmitted
// tell is replayed, and a refused create or delete changed nothing.
// Each answer is an operation, failed unless 2xx, and the returned time
// spans every attempt, so a failure shows in the latencies too.
func (w *tunedHTTP) request(ctx context.Context, method, path string, in, out any, tr *tracer, ph *phase) (time.Duration, error) {
	var total time.Duration
	for attempt := 1; ; attempt++ {
		d, err := w.call(ctx, method, path, in, out, tr)
		total += d
		ph.op(err == nil)
		var se *statusError
		if err == nil || !errors.As(err, &se) || attempt == tunedAttempts {
			return total, err
		}
	}
}

// routeOf names the API route of a request path for span names.
func routeOf(path string) string {
	switch filepath.Base(path) {
	case "ask", "tell", "stats", "sessions":
		return filepath.Base(path)
	}
	return "session"
}

// session runs unit i: create, ask/tell to NMax, keep or measure the
// final checkpoint, delete.
func (w *tunedHTTP) session(ctx context.Context, i int, tr *tracer, ph *phase) error {
	u := uint64(i)
	ev := bench.Evaluator(w.p, rng.New(rng.Mix(w.seed^0x5eed, u)))
	var created server.CreateResponse
	d, err := w.request(ctx, "POST", "/sessions", server.CreateRequest{
		Space: w.spec, PoolSize: tunedPool, PoolSeed: rng.Mix(w.seed, 1<<40),
		Seed: rng.Mix(w.seed, u), Strategy: "PWU", Alpha: alpha,
		NInit: tunedNInit, NBatch: tunedNBatch, NMax: tunedNMax,
	}, &created, tr, ph)
	if err != nil {
		return err
	}
	w.record("create", d)
	var ask server.AskResponse
	d, err = w.request(ctx, "POST", "/sessions/"+created.ID+"/ask", nil, &ask, tr, ph)
	if err != nil {
		return err
	}
	w.record("ask", d)
	asks, tells, labels := 1, 0, 0
	var told server.TellResponse
	for !ask.Done {
		cfgs := make([]space.Config, len(ask.Configs))
		for k, c := range ask.Configs {
			cfgs[k] = space.Config(c)
		}
		ls, err := labelBatch(ctx, ev, cfgs, tr, ph)
		if err != nil {
			return err
		}
		labels += len(ls)
		sw := startWatch()
		dt, err := w.request(ctx, "POST", "/sessions/"+created.ID+"/tell",
			server.TellRequest{Batch: ask.Batch, Step: ask.Step, Labels: ls}, &told, tr, ph)
		if err != nil {
			return err
		}
		tells++
		ph.accept(len(ls))
		w.record("tell", dt)
		if told.Done {
			break
		}
		da, err := w.request(ctx, "POST", "/sessions/"+created.ID+"/ask", nil, &ask, tr, ph)
		if err != nil {
			return err
		}
		_, cpu := sw.elapsed()
		asks++
		w.record("ask", da)
		ph.addIter(dt+da, cpu)
	}
	if !told.Done || told.Samples != tunedNMax {
		ph.fail("session %s ended with done=%v samples=%d, want done with %d", created.ID, told.Done, told.Samples, tunedNMax)
	}
	ckpt := filepath.Join(w.ckptDir, created.ID+".ckpt")
	if i < minUnits {
		if err := copyFile(ckpt, filepath.Join(w.keepDir, fmt.Sprintf("%d.ckpt", i))); err != nil {
			return err
		}
	}
	fi, err := os.Stat(ckpt)
	if err != nil {
		return err
	}
	d, err = w.request(ctx, "DELETE", "/sessions/"+created.ID, nil, nil, tr, ph)
	if err != nil {
		return err
	}
	w.record("delete", d)
	w.mu.Lock()
	w.sizes = append(w.sizes, float64(fi.Size()))
	w.count.asks += asks
	w.count.tells += tells
	w.count.labels += labels
	w.count.sessions++
	w.mu.Unlock()
	return nil
}

func (w *tunedHTTP) record(op string, d time.Duration) {
	w.mu.Lock()
	w.lat[op] = append(w.lat[op], ms(d))
	w.mu.Unlock()
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

func (w *tunedHTTP) run(ctx context.Context, d time.Duration, tr *tracer, ph *phase) error {
	w.sizes = nil
	w.lat = map[string][]float64{}
	w.count = tunedCounts{}
	if _, err := w.call(ctx, "GET", "/stats", nil, &w.stats[0], nil); err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < minUnits || time.Since(start) < d; i++ {
		if err := w.session(ctx, i, tr, ph); err != nil {
			return err
		}
	}
	ph.finish()
	if _, err := w.call(ctx, "GET", "/stats", nil, &w.stats[1], nil); err != nil {
		return err
	}
	if err := checkServerCounts(w.stats[0], w.stats[1], w.count.asks, w.count.tells, w.count.labels); err != nil {
		ph.fail("%v", err)
	}
	for i := 0; i < minUnits; i++ {
		snap, err := runstate.Load(filepath.Join(w.keepDir, fmt.Sprintf("%d.ckpt", i)))
		if err != nil {
			return fmt.Errorf("session %d checkpoint: %w", i, err)
		}
		if len(snap.TrainY) != tunedNMax {
			ph.fail("session %d checkpoint holds %d labels, want %d", i, len(snap.TrainY), tunedNMax)
		}
		model, err := forest.Load(bytes.NewReader(snap.Model))
		if err != nil {
			return fmt.Errorf("session %d model: %w", i, err)
		}
		ph.unit(i, sessionDigest(snap.Taken, snap.TrainY), w.test.rmse(model))
	}
	return nil
}

// checkServerCounts verifies the service's /stats moved by exactly the
// asks, tells and labels the clients made.
func checkServerCounts(before, after server.Stats, asks, tells, labels int) error {
	got := [3]int64{after.Asks - before.Asks, after.Tells - before.Tells, after.Labels - before.Labels}
	want := [3]int64{int64(asks), int64(tells), int64(labels)}
	if got != want {
		return fmt.Errorf("/stats counted asks/tells/labels %v, clients made %v", got, want)
	}
	return nil
}

func (w *tunedHTTP) layers(ctx context.Context, ph *phase, out metricSet) error {
	// Server-side engine telemetry and the model come from the kept
	// final checkpoints; their Save is replayed to time it.
	var st core.RunStats
	var fitMS, saveMS []float64
	var model *forest.Forest
	var sets []fitInput
	features := w.p.Space().Features()
	for i := 0; i < minUnits; i++ {
		path := filepath.Join(w.keepDir, fmt.Sprintf("%d.ckpt", i))
		snap, err := runstate.Load(path)
		if err != nil {
			return err
		}
		for _, s := range snap.Stats {
			st.FitTime += s.FitTime
			st.SelectTime += s.SelectTime
			st.EvalTime += s.EvalTime
			st.Events++
			fitMS = append(fitMS, ms(s.FitTime))
		}
		for rep := 0; rep < 10; rep++ {
			start := time.Now()
			if err := runstate.Save(filepath.Join(w.dir, "replay.ckpt"), snap); err != nil {
				return err
			}
			saveMS = append(saveMS, ms(time.Since(start)))
		}
		if model, err = forest.Load(bytes.NewReader(snap.Model)); err != nil {
			return err
		}
		sets = append(sets, fitInput{X: w.p.Space().EncodeAll(snap.TrainConfigs), y: snap.TrainY, features: features})
	}
	engineShares(st, out)
	sessions := float64(w.count.sessions)
	out["forest.fit_calls"] = sessions * float64(st.Events) / minUnits
	out["forest.fit_ms_p50"] = median(fitMS)
	out["forest.fit_rows_mean"] = meanFitRows(tunedNInit, tunedNBatch, tunedNMax)
	out["tree.fit_us_p50"] = treeFitReplay(sets, tree.Config{})
	per := scanned(tunedPool, tunedNInit, tunedNBatch, tunedNMax)
	out["pool.candidates_scored"] = sessions * float64(per)
	out["pool.scan_ns_per_candidate"] = float64(st.SelectTime.Nanoseconds()) / float64(per*minUnits)
	out["forest.score_ns_per_candidate"] = scoreReplay(model, w.p.Space(), w.seed)
	out["bench.eval_us"] = 1e3 * sumMS(ph.label) / float64(max(ph.labels, 1))

	out["server.create_ms_p50"] = median(w.lat["create"])
	out["server.ask_ms_p50"] = median(w.lat["ask"])
	out["server.ask_ms_tail"], _ = tail(w.lat["ask"])
	out["server.tell_ms_p50"] = median(w.lat["tell"])
	out["server.tell_ms_tail"], _ = tail(w.lat["tell"])
	out["server.requests"] = float64(ph.attempted)
	out["server.errors"] = float64(ph.failed)
	d := diffStats(w.stats[0], w.stats[1])
	if n := d.Tells + d.TellConflicts + d.TellReplays; n > 0 {
		out["server.useful_tell_ratio"] = float64(d.Tells) / float64(n)
	}
	out["runstate.save_ms_p50"] = median(saveMS)
	out["runstate.ckpt_bytes"] = mean(w.sizes)

	// Shares of the client's iteration (tell + ask round trips): the
	// server's engine work per iteration, one checkpoint save, and the
	// rest — HTTP, JSON and session bookkeeping.
	iter := median(ph.iter)
	if iter > 0 && st.Events > 1 {
		// Each kept session has one iteration sample per event but
		// the cold start.
		engine := ms(st.FitTime+st.SelectTime) / float64(st.Events-minUnits)
		ckpt := median(saveMS)
		out["share.checkpoint"] = ckpt / iter
		out["share.http"] = max(0, 1-(engine+ckpt)/iter)
	}
	return nil
}

// meanFitRows is the mean training-set size over a session's fits.
func meanFitRows(nInit, nBatch, nMax int) float64 {
	var sum, n float64
	for k := nInit; ; k += nBatch {
		k = min(k, nMax)
		sum += float64(k)
		n++
		if k == nMax {
			return sum / n
		}
	}
}

func diffStats(a, b server.Stats) server.Stats {
	return server.Stats{
		Tells:         b.Tells - a.Tells,
		TellConflicts: b.TellConflicts - a.TellConflicts,
		TellReplays:   b.TellReplays - a.TellReplays,
	}
}
