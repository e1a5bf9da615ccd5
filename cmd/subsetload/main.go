// Command subsetload drives a running subsetd: a load generator with
// retry/backoff for the smoke and overload experiments, recording
// latency percentiles per arm into BENCH_serve.json.
//
// Usage:
//
//	subsetload -addr http://127.0.0.1:8344 -out BENCH_serve.json
//	subsetload -addr http://127.0.0.1:8344 -smoke
//
// Bench mode runs four arms against one uploaded synthetic workload:
//
//	cold       distinct price queries, nothing cached — full pipeline
//	warm       the same queries again — served from the result cache
//	coalesced  concurrent identical cold queries — single-flight
//	           collapses the herd into one computation
//	overload   a 4x-capacity burst of sweep queries fired at once —
//	           the server must shed the excess with 429, not collapse
//
// Every arm reports shed (429) responses separately from latency:
// a shed is an admission-control decision, not a latency datapoint,
// and folding its fast 429 into the percentiles would flatter p50
// exactly when the server is struggling. Each arm's stats carry its
// shed count and shed_rate alongside p50/p99; the overload arm also
// reports the shed responses' own latency percentiles (how fast the
// server says no).
//
// -require-shed makes the overload arm a hard assertion (exit 1 when
// nothing was shed or an unmapped status came back) — the
// shed-don't-collapse experiment the Makefile runs.
//
// Smoke mode uploads, runs one cold and one warm subset query, checks
// they are byte-identical, and probes /healthz and /readyz — the
// end-to-end liveness gate.
//
// Every logical request carries an X-Subsetd-Trace-Id header, reused
// across its retry attempts, so one flaky request lines up as one
// trace in the server's logs and /debug/events.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/trace"
)

type config struct {
	addr        string
	out         string
	smoke       bool
	frames      int
	seed        uint64
	coldN       int
	coalesceC   int
	overloadN   int
	requireShed bool
	retries     int
	backoff     time.Duration
	timeout     time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "http://127.0.0.1:8344", "subsetd base URL")
	flag.StringVar(&cfg.out, "out", "BENCH_serve.json", "latency report output file (bench mode)")
	flag.BoolVar(&cfg.smoke, "smoke", false, "run the smoke sequence instead of the bench arms")
	flag.IntVar(&cfg.frames, "frames", 48, "synthetic workload length in frames")
	flag.Uint64Var(&cfg.seed, "seed", 7, "synthetic workload seed")
	flag.IntVar(&cfg.coldN, "cold-n", 8, "cold/warm arm: number of distinct queries")
	flag.IntVar(&cfg.coalesceC, "coalesce-c", 8, "coalesced arm: concurrent identical queries")
	flag.IntVar(&cfg.overloadN, "overload-n", 16, "overload arm: concurrent burst size (pick 4x server capacity)")
	flag.BoolVar(&cfg.requireShed, "require-shed", false, "fail unless the overload arm shed at least one request")
	flag.IntVar(&cfg.retries, "retries", 20, "max retries for retryable requests (upload, probes)")
	flag.DurationVar(&cfg.backoff, "backoff", 100*time.Millisecond, "initial retry backoff (doubles per attempt, honors Retry-After)")
	flag.DurationVar(&cfg.timeout, "timeout", 120*time.Second, "per-request client timeout")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "subsetload:", err)
		os.Exit(1)
	}
}

// client wraps the HTTP calls with bounded retry: connection errors
// and 503 (server still starting, or draining) back off exponentially,
// honoring Retry-After when the server sends one. 429 is NOT retried
// here — the overload arm needs to observe sheds, and the bench arms
// are paced under capacity.
type client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
}

type reply struct {
	status int
	body   []byte
	header http.Header
}

// traceSeq numbers logical requests; one logical request keeps its
// trace ID across every retry attempt.
var traceSeq atomic.Int64

func nextTraceID() string {
	return fmt.Sprintf("load-%d-%d", os.Getpid(), traceSeq.Add(1))
}

func (c *client) once(method, path string, body []byte) (reply, error) {
	return c.onceTraced(method, path, body, nextTraceID())
}

func (c *client) onceTraced(method, path string, body []byte, tid string) (reply, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set(serve.TraceHeader, tid)
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: data, header: resp.Header}, nil
}

func (c *client) withRetry(method, path string, body []byte) (reply, error) {
	delay := c.backoff
	tid := nextTraceID() // one logical request, one trace across attempts
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		r, err := c.onceTraced(method, path, body, tid)
		switch {
		case err != nil:
			lastErr = err
		case r.status == http.StatusServiceUnavailable:
			lastErr = fmt.Errorf("server unavailable: %s", bytes.TrimSpace(r.body))
			if ra := r.header.Get("Retry-After"); ra != "" {
				if secs, perr := strconv.Atoi(ra); perr == nil && secs > 0 {
					delay = time.Duration(secs) * time.Second
				}
			}
		default:
			return r, nil
		}
		time.Sleep(delay)
		if delay < 2*time.Second {
			delay *= 2
		}
	}
	return reply{}, fmt.Errorf("after %d retries: %w", c.retries, lastErr)
}

func run(cfg config) error {
	c := &client{
		base:    cfg.addr,
		hc:      &http.Client{Timeout: cfg.timeout},
		retries: cfg.retries,
		backoff: cfg.backoff,
	}

	// Build and upload the synthetic workload (a stream container on the wire).
	prof := synth.Bioshock1Profile()
	prof.Frames = cfg.frames
	wl, err := synth.Generate(prof, cfg.seed)
	if err != nil {
		return err
	}
	var stream bytes.Buffer
	if err := trace.EncodeStream(&stream, wl); err != nil {
		return err
	}
	up, err := c.withRetry("POST", "/v1/workloads", stream.Bytes())
	if err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	if up.status != http.StatusCreated && up.status != http.StatusOK {
		return fmt.Errorf("upload: status %d: %s", up.status, up.body)
	}
	var upResp struct {
		Fingerprint string `json:"fingerprint"`
		Frames      int    `json:"frames"`
		Name        string `json:"name"`
	}
	if err := json.Unmarshal(up.body, &upResp); err != nil {
		return fmt.Errorf("upload response: %w", err)
	}
	fmt.Printf("uploaded %s: %d frames, fingerprint %s\n", upResp.Name, upResp.Frames, upResp.Fingerprint[:12])

	if cfg.smoke {
		return smoke(c, upResp.Fingerprint)
	}
	return bench(cfg, c, upResp.Fingerprint, upResp.Name)
}

// smoke is the end-to-end liveness sequence: cold query, warm query,
// byte-identity between them, and a healthz probe.
func smoke(c *client, fp string) error {
	body := []byte(fmt.Sprintf(`{"workload":%q}`, fp))
	cold, err := c.withRetry("POST", "/v1/subset", body)
	if err != nil {
		return fmt.Errorf("cold subset: %w", err)
	}
	if cold.status != http.StatusOK {
		return fmt.Errorf("cold subset: status %d: %s", cold.status, cold.body)
	}
	warm, err := c.withRetry("POST", "/v1/subset", body)
	if err != nil {
		return fmt.Errorf("warm subset: %w", err)
	}
	if warm.status != http.StatusOK {
		return fmt.Errorf("warm subset: status %d: %s", warm.status, warm.body)
	}
	if !bytes.Equal(cold.body, warm.body) {
		return fmt.Errorf("warm subset response differs from cold:\ncold: %s\nwarm: %s", cold.body, warm.body)
	}
	hz, err := c.once("GET", "/healthz", nil)
	if err != nil || hz.status != http.StatusOK {
		return fmt.Errorf("healthz: status %d, err %v", hz.status, err)
	}
	rz, err := c.once("GET", "/readyz", nil)
	if err != nil || rz.status != http.StatusOK {
		return fmt.Errorf("readyz: status %d, err %v (body %s)", rz.status, err, rz.body)
	}
	fmt.Println("smoke ok: cold and warm subset queries byte-identical, healthz live, readyz ready")
	return nil
}

// armStats is one arm's latency summary. N, and the percentiles, cover
// only completed (200) requests; Shed counts the 429s the admission
// controller turned away, reported alongside — never mixed into — the
// latency numbers.
type armStats struct {
	N        int     `json:"n"`
	MeanMs   float64 `json:"mean_ms"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
	Shed     int     `json:"shed"`
	ShedRate float64 `json:"shed_rate"`
}

// withShed annotates an arm's summary with its shed accounting.
func withShed(s armStats, shed int) armStats {
	s.Shed = shed
	if total := s.N + shed; total > 0 {
		s.ShedRate = float64(shed) / float64(total)
	}
	return s
}

func summarize(lat []time.Duration) armStats {
	if len(lat) == 0 {
		return armStats{}
	}
	ms := make([]float64, len(lat))
	var sum float64
	for i, d := range lat {
		ms[i] = float64(d.Microseconds()) / 1000
		sum += ms[i]
	}
	sort.Float64s(ms)
	q := func(p float64) float64 {
		return ms[int(math.Min(p*float64(len(ms)-1)+0.5, float64(len(ms)-1)))]
	}
	return armStats{
		N:      len(ms),
		MeanMs: sum / float64(len(ms)),
		P50Ms:  q(0.50),
		P99Ms:  q(0.99),
		MaxMs:  ms[len(ms)-1],
	}
}

func bench(cfg config, c *client, fp, name string) error {
	report := map[string]any{
		"schema_version": 1,
		"addr":           cfg.addr,
		"workload":       map[string]any{"name": name, "fingerprint": fp, "frames": cfg.frames, "seed": cfg.seed},
	}
	arms := map[string]any{}
	report["arms"] = arms

	priceBody := func(clock float64) []byte {
		return []byte(fmt.Sprintf(`{"workload":%q,"core_clock_ghz":%.4f}`, fp, clock))
	}

	// Cold arm: every query prices a clock the cache has never seen.
	// A shed response (429) is counted, not timed — see the package
	// comment on shed accounting.
	pacedArm := func(arm string) (armStats, error) {
		lat := make([]time.Duration, 0, cfg.coldN)
		shed := 0
		for i := 0; i < cfg.coldN; i++ {
			start := time.Now()
			r, err := c.withRetry("POST", "/v1/price", priceBody(0.41+0.01*float64(i)))
			if err != nil {
				return armStats{}, fmt.Errorf("%s price %d: %w", arm, i, err)
			}
			switch r.status {
			case http.StatusOK:
				lat = append(lat, time.Since(start))
			case http.StatusTooManyRequests:
				shed++
			default:
				return armStats{}, fmt.Errorf("%s price %d: status %d: %s", arm, i, r.status, r.body)
			}
		}
		return withShed(summarize(lat), shed), nil
	}
	cold, err := pacedArm("cold")
	if err != nil {
		return err
	}
	arms["cold"] = cold

	// Warm arm: the same clocks again — the result cache answers.
	warm, err := pacedArm("warm")
	if err != nil {
		return err
	}
	arms["warm"] = warm

	// Coalesced arm: a herd of identical cold queries fired at once;
	// single-flight must collapse them into one computation.
	herd := cfg.coalesceC
	body := priceBody(2.5)
	lat := make([]time.Duration, herd)
	coalesced := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			r, err := c.once("POST", "/v1/price", body)
			lat[i] = time.Since(start)
			if err != nil {
				errs[i] = err
				return
			}
			if r.status != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", r.status, r.body)
				return
			}
			if r.header.Get("X-Subsetd-Coalesced") == "true" {
				mu.Lock()
				coalesced++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("coalesced arm: %w", err)
	}
	cs := summarize(lat)
	arms["coalesced"] = map[string]any{
		"n": cs.N, "mean_ms": cs.MeanMs, "p50_ms": cs.P50Ms, "p99_ms": cs.P99Ms, "max_ms": cs.MaxMs,
		"coalesced": coalesced,
	}

	// Overload arm: a burst of distinct (uncacheable) sweep queries at
	// 4x capacity, no retries. The contract: excess is shed fast with
	// 429, admitted requests finish with bounded latency, and nothing
	// comes back unmapped.
	n := cfg.overloadN
	codes := make([]int, n)
	olat := make([]time.Duration, n)
	var owg sync.WaitGroup
	for i := 0; i < n; i++ {
		owg.Add(1)
		go func(i int) {
			defer owg.Done()
			// Distinct mem clock per request: no two coalesce or hit cache.
			sbody := []byte(fmt.Sprintf(
				`{"workload":%q,"core_clocks":[0.4,0.8,1.2,1.6,2.0],"mem_clocks":[%.4f]}`,
				fp, 1.0+0.001*float64(i)))
			start := time.Now()
			r, err := c.once("POST", "/v1/sweep", sbody)
			olat[i] = time.Since(start)
			if err != nil {
				codes[i] = -1
				return
			}
			codes[i] = r.status
		}(i)
	}
	owg.Wait()
	admitted, shed, other := 0, 0, 0
	admittedLat := make([]time.Duration, 0, n)
	shedLat := make([]time.Duration, 0, n)
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			admitted++
			admittedLat = append(admittedLat, olat[i])
		case http.StatusTooManyRequests:
			shed++
			shedLat = append(shedLat, olat[i])
		default:
			other++
		}
	}
	os_ := summarize(admittedLat)
	ss := summarize(shedLat)
	shedRate := 0.0
	if admitted+shed > 0 {
		shedRate = float64(shed) / float64(admitted+shed)
	}
	arms["overload"] = map[string]any{
		"sent": n, "admitted": admitted, "shed": shed, "other": other,
		"shed_rate":        shedRate,
		"admitted_mean_ms": os_.MeanMs, "admitted_p50_ms": os_.P50Ms,
		"admitted_p99_ms": os_.P99Ms, "admitted_max_ms": os_.MaxMs,
		// How fast the server says no: a shed that is not much faster
		// than an admitted request means admission control is not
		// actually protecting anything.
		"shed_p50_ms": ss.P50Ms, "shed_p99_ms": ss.P99Ms,
	}
	fmt.Printf("overload: %d sent, %d admitted, %d shed (rate %.2f), %d other; admitted p99 %.1f ms, shed p99 %.1f ms\n",
		n, admitted, shed, shedRate, other, os_.P99Ms, ss.P99Ms)
	if other > 0 {
		return fmt.Errorf("overload arm: %d requests got an unmapped status", other)
	}
	if cfg.requireShed && shed == 0 {
		return fmt.Errorf("overload arm: nothing shed at %dx burst — admission control not engaging", n)
	}
	if admitted == 0 {
		return fmt.Errorf("overload arm: nothing admitted — server collapsed instead of shedding")
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (cold p50 %.1f ms, warm p50 %.1f ms, %d/%d coalesced, %d paced sheds)\n",
		cfg.out, cold.P50Ms, warm.P50Ms, coalesced, herd, cold.Shed+warm.Shed)
	return nil
}
