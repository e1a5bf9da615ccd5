package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/coord"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
)

// fleetWorkers is the fleet's size: one subsetd worker per host core.
const fleetWorkers = 2

// fleet is a set of fresh in-process subsetd workers, each a
// serve.Server behind its own loopback listener with an empty cache
// directory, as subsetd -cache-dir would run them.
type fleet struct {
	servers []*serve.Server
	https   []*httptest.Server
	caches  []*cache.Cache
	dirs    []string
	urls    []string
	tr      *http.Transport
}

// startFleet starts the workers under dir. wrap, when non-nil, wraps
// each worker's handler (the traced run times requests with it).
func startFleet(dir string, wrap func(http.Handler) http.Handler) (*fleet, error) {
	f := &fleet{tr: &http.Transport{}}
	for i := 0; i < fleetWorkers; i++ {
		d := filepath.Join(dir, fmt.Sprintf("worker-%d", i))
		if err := os.RemoveAll(d); err != nil {
			f.stop()
			return nil, err
		}
		c, err := cache.New(cache.Config{Dir: d})
		if err != nil {
			f.stop()
			return nil, err
		}
		s := serve.New(serve.Options{Cache: c, Run: obs.NewRun("subsetd")})
		h := s.Handler()
		if wrap != nil {
			h = wrap(h)
		}
		ts := httptest.NewServer(h)
		f.servers, f.https, f.caches, f.dirs = append(f.servers, s), append(f.https, ts), append(f.caches, c), append(f.dirs, d)
		f.urls = append(f.urls, ts.URL)
	}
	return f, nil
}

// stop drains every worker, closes its listener and removes its cache
// directory; it returns once all of them have stopped.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, s := range f.servers {
		_ = s.Drain(ctx) // a drain that times out is abandoned; Close below still waits for handlers
		f.https[i].Close()
	}
	f.tr.CloseIdleConnections()
	for _, d := range f.dirs {
		os.RemoveAll(d)
	}
}

func (f *fleet) cacheStats() (st cache.Stats, dirBytes int64) {
	for i, c := range f.caches {
		s := c.Stats()
		st.Hits += s.Hits
		st.DiskHits += s.DiskHits
		st.Misses += s.Misses
		st.Corrupt += s.Corrupt
		st.Errors += s.Errors
		dirBytes += dirSize(f.dirs[i])
	}
	return st, dirBytes
}

// coordinator builds a coordinator over the fleet with default options
// (2 x workers shards); onEvent may be nil.
func (f *fleet) coordinator(onEvent func(coord.Event)) (*coord.Coordinator, error) {
	return coord.New(coord.Options{Workers: f.urls, HTTP: &http.Client{Transport: f.tr}, OnEvent: onEvent})
}

// fleetIter is one untraced fleet iteration. Starting and stopping the
// workers is not timed; the timed part is coord.Register of the stream
// encoding, coord.Sweep of the grid, and rendering its output.
func fleetIter(ctx context.Context, in *input, work string) outcome {
	f, err := startFleet(work, nil)
	if err != nil {
		return failed(err)
	}
	defer f.stop()
	var o outcome
	m := startMeter()
	co, err := f.coordinator(nil)
	if err != nil {
		return failed(err)
	}
	if _, err := co.Register(ctx, in.encoded); err != nil {
		return failed(err)
	}
	rm, _, err := co.Sweep(ctx, gridCore, gridMem)
	if err != nil {
		return failed(err)
	}
	enc, table, err := renderManifest(rm)
	if err != nil {
		return failed(err)
	}
	m.stop(&o)
	o.err = checkSweep(in, enc, table)
	return o
}

// serverTrace times the workers' upload and shard-sweep handlers from a
// wrapping http.Handler and counts their bytes and sheds. parent is the
// client span (register or sweep) the requests currently belong to.
type serverTrace struct {
	rec                   *recorder
	iter                  int
	parent                atomic.Int64
	uploadBytes, manBytes atomic.Int64
	shed                  atomic.Int64
}

func (st *serverTrace) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := ""
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/workloads":
			name = "serve.upload"
			r.Body = &countingBody{ReadCloser: r.Body, n: &st.uploadBytes}
		case r.Method == http.MethodPost && r.URL.Path == "/v1/shard/sweep":
			name = "serve.shard_sweep"
		default:
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		id := st.rec.start(name, int(st.parent.Load()), st.iter)
		h.ServeHTTP(cw, r)
		st.rec.end(id)
		if cw.status == http.StatusTooManyRequests {
			st.shed.Add(1)
		}
		if name == "serve.shard_sweep" {
			st.manBytes.Add(cw.n)
		}
	})
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// eventLog times the coordinator's dispatch and completion events.
type eventLog struct {
	rec    *recorder
	mu     sync.Mutex
	events []timedEvent
}

type timedEvent struct {
	at int64
	ev coord.Event
}

func (l *eventLog) observe(ev coord.Event) {
	at := l.rec.now()
	l.mu.Lock()
	l.events = append(l.events, timedEvent{at: at, ev: ev})
	l.mu.Unlock()
}

// waits returns, summed over shards, the wait from sweepStart to each
// shard's first dispatch, and the wall time of each completed attempt
// (its completion minus that shard's latest dispatch to the same
// worker), in seconds.
func (l *eventLog) waits(sweepStart int64) (queueWait, attempt float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	type key struct {
		shard  int
		worker string
	}
	first := map[int]bool{}
	last := map[key]int64{}
	var qw, at int64
	for _, te := range l.events {
		k := key{te.ev.Shard, te.ev.Worker}
		switch te.ev.Kind {
		case coord.EventDispatch:
			if !first[k.shard] {
				first[k.shard] = true
				qw += te.at - sweepStart
			}
			last[k] = te.at
		case coord.EventComplete:
			if t0, ok := last[k]; ok {
				at += te.at - t0
			}
		}
	}
	return float64(qw) / 1e9, float64(at) / 1e9
}

// fleetReplay is the traced fleet iteration over a started fleet:
// spans around coord.New, Register, Sweep and rendering, server-side
// spans from st's handler wrapper, and attempt timing from the
// coordinator's events. It returns the fleet's per-layer values.
func fleetReplay(ctx context.Context, in *input, f *fleet, st *serverTrace, p *replay) (outcome, map[string]float64) {
	log := &eventLog{rec: p.rec}
	var (
		co         *coord.Coordinator
		rm         *shard.RunManifest
		stats      coord.Stats
		enc, table []byte
		sweepID    int
	)
	p.step("coord.new", func() (err error) {
		co, err = f.coordinator(log.observe)
		return err
	})
	p.step("coord.register", func() error {
		st.parent.Store(int64(p.current))
		_, err := co.Register(ctx, in.encoded)
		return err
	})
	p.step("coord.sweep", func() (err error) {
		sweepID = p.current
		st.parent.Store(int64(sweepID))
		rm, stats, err = co.Sweep(ctx, gridCore, gridMem)
		return err
	})
	p.step("shard.render", func() (err error) {
		enc, table, err = renderManifest(rm)
		return err
	})
	if p.err != nil {
		return failed(p.err), nil
	}
	o := outcome{err: checkSweep(in, enc, table)}
	o.cache, o.dirSize = f.cacheStats()

	queueWait, attempt := log.waits(p.rec.get(sweepID).Start)
	var busyMax, busySum int64
	for _, wc := range stats.PerWorker {
		busyMax = max(busyMax, wc.BusyNs)
		busySum += wc.BusyNs
	}
	imbalance := 0.0
	if busySum > 0 {
		imbalance = float64(busyMax) / (float64(busySum) / fleetWorkers)
	}
	useful := 0.0
	if stats.Attempts > 0 {
		useful = float64(stats.Completed) / float64(stats.Attempts)
	}
	shardSweep := p.rec.total(p.iter, "serve.shard_sweep")
	return o, map[string]float64{
		"coord.register_s":        p.rec.total(p.iter, "coord.register"),
		"coord.sweep_s":           p.rec.total(p.iter, "coord.sweep"),
		"coord.merge_s":           float64(stats.MergeNs) / 1e9,
		"coord.queue_wait_s":      queueWait,
		"coord.attempt_s":         attempt,
		"coord.worker_busy_max_s": float64(busyMax) / 1e9,
		"coord.worker_imbalance":  imbalance,
		"coord.attempts":          float64(stats.Attempts),
		"coord.retries":           float64(stats.Retries),
		"coord.steals":            float64(stats.Steals),
		"coord.duplicates":        float64(stats.Duplicates),
		"coord.useful_ratio":      useful,
		"serve.upload_s":          p.rec.total(p.iter, "serve.upload"),
		"serve.shard_sweep_s":     shardSweep,
		"serve.transport_s":       attempt - shardSweep,
		"serve.upload_bytes":      float64(st.uploadBytes.Load()),
		"serve.manifest_bytes":    float64(st.manBytes.Load()),
		"serve.shed":              float64(st.shed.Load()),
	}
}
