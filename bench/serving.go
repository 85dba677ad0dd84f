package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/eval"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve/api"
	"repro/internal/shard"
)

const (
	goodputWindows = 5    // closed phase is split into this many equal windows
	maxCeiling     = 0.8  // goodput above this share of the null handler's is the harness's
	routedSamples  = 200  // routed answers compared byte for byte with the backend's
	recallUsers    = 500  // users behind ann_recall_at_10
	minANNRecall   = 0.93 // ann top-10 must keep this share of the exact top-10

	// Generator lateness above these shares of the latency quantile it
	// feeds voids the run. The tail gets more room: when the host stalls
	// the whole process, scheduler and server are late together.
	maxLateShareP50 = 0.5
	maxLateShareP99 = 0.75
)

// setup builds the workload's fixture and boots its topology: the part
// of a run a deployment pays once, reported as setup_s.
func (r *run) setup() (*fixture, *topology, error) {
	var fx *fixture
	var err error
	if r.spec.large {
		fx, err = r.largeFixture()
	} else {
		fx, err = r.smallFixture()
	}
	if err != nil {
		return nil, nil, err
	}
	var tp *topology
	r.stage("serve.boot", func() { tp, err = r.boot(fx) })
	return fx, tp, err
}

// scrapeTargets GETs /metrics from the entry point and every backend.
type scrapeSet struct {
	samples [][]obs.PromSample // entry point first when routed, then backends
	bytes   int
	took    time.Duration
}

func (r *run) scrape(dr *driver, tp *topology) (*scrapeSet, error) {
	urls := []string{}
	if tp.router != nil {
		urls = append(urls, tp.url)
	}
	for _, l := range tp.listeners[:len(tp.backends)] {
		urls = append(urls, l.url)
	}
	set := &scrapeSet{}
	for _, u := range urls {
		t0 := time.Now()
		resp, err := dr.hc.Get(u + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", u, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("scrape %s: status %d: %v", u, resp.StatusCode, err)
		}
		samples, err := obs.ParseProm(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", u, err)
		}
		set.took = time.Since(t0) // the last target is a serve backend
		set.bytes = len(body)
		set.samples = append(set.samples, samples)
	}
	return set, nil
}

// counterDelta sums family's growth between two scrapes over every
// target, keeping series whose labels pass match (nil keeps all).
func counterDelta(before, after *scrapeSet, family string, match func(map[string]string) bool) float64 {
	if match == nil {
		match = func(map[string]string) bool { return true }
	}
	var d float64
	for i := range after.samples {
		d += obs.CounterValue(after.samples[i], family, match) - obs.CounterValue(before.samples[i], family, match)
	}
	return d
}

// loadRun is what one serving run measured: the phases as the client
// saw them, the servers' own counters around them, and the few numbers
// derived from both that the report, the validity rules, the output
// checks and the traced part all read.
type loadRun struct {
	fx *fixture
	tp *topology
	dr *driver

	null, warmup, closed, open *phase
	before, after              *scrapeSet // /metrics around closed + open
	hits, misses               uint64     // score-cache deltas over the same span

	rates    []float64 // closed-phase goodput per window
	goodput  float64   // their median
	nullRate float64   // the null handler's goodput: the harness's ceiling
	lat      []float64 // open-phase latencies of OK ops, ms, sorted
	late     []float64 // open-phase scheduler lateness per arrival, ms, sorted
	conns    int       // connections the transport opened over the whole run

	annRecall    float64
	annFallbacks float64
	acked        int // ingest events acknowledged so far
}

// load runs calibration, warm-up and the two measured phases.
func (r *run) load(fx *fixture, tp *topology) (*loadRun, error) {
	sp := r.spec
	half := time.Duration(r.seconds / 2 * float64(time.Second))
	warm, calib := time.Second, time.Second
	if r.smoke {
		warm, calib = 100*time.Millisecond, 100*time.Millisecond
	}
	st := &r.res.Stamp
	st.WarmupS, st.ClosedS, st.OpenS, st.RateQPS = warm.Seconds(), half.Seconds(), half.Seconds(), sp.rateQPS

	lr := &loadRun{fx: fx, tp: tp}
	var err error
	if lr.null, err = calibrate(calib); err != nil {
		return nil, fmt.Errorf("null-handler calibration: %w", err)
	}
	lr.dr = newDriver(tp.url, fx.d, sp.mode)
	if sp.ingest {
		lr.dr.pairs = newPairGen(fx.d, r.seed)
	}
	gen := newOpGen(fx.d, sp.mix, r.seed)
	lr.warmup = lr.dr.closed(warm, lr.dr.stream(gen.next))
	r.e2e("heap_live_mb", liveHeapMB())
	if lr.before, err = r.scrape(lr.dr, tp); err != nil {
		return nil, err
	}
	hits0, misses0 := cacheStats(tp)

	lr.closed = lr.dr.closed(half, lr.dr.stream(gen.next))
	if sp.ingest {
		if err := r.compact(lr); err != nil {
			return nil, err
		}
	}
	lr.open = lr.dr.open(half, sp.rateQPS, r.seed, gen.next)

	hits1, misses1 := cacheStats(tp)
	lr.hits, lr.misses = hits1-hits0, misses1-misses0
	if lr.after, err = r.scrape(lr.dr, tp); err != nil {
		return nil, err
	}
	if lr.closed.okCount() == 0 || lr.open.okCount() == 0 {
		return nil, fmt.Errorf("a load phase completed no op (first error: %v)", lr.dr.firstErr)
	}
	lr.rates = lr.closed.windowRates(goodputWindows)
	lr.goodput = median(lr.rates)
	lr.nullRate = median(lr.null.windowRates(goodputWindows))
	lr.lat = lr.open.latencies(nil)
	lr.late = sortedCopy(lr.open.late)
	lr.conns = int(lr.dr.conns.Load())
	lr.acked = lr.warmup.acked + lr.closed.acked + lr.open.acked
	return lr, nil
}

func (r *run) runServing() error {
	t0 := time.Now()
	fx, tp, err := r.setup()
	if err != nil {
		return err
	}
	defer tp.close()
	r.e2e("setup_s", time.Since(t0).Seconds())

	lr, err := r.load(fx, tp)
	if err != nil {
		return err
	}
	defer lr.dr.close()
	r.reportEndToEnd(lr)
	r.checkHarness(lr)
	r.checkOutputs(lr)
	if r.traced {
		if err := r.tracedServing(lr); err != nil {
			return err
		}
	}
	if r.spec.ingest {
		return r.checkDurable(lr)
	}
	return nil
}

func (r *run) reportEndToEnd(lr *loadRun) {
	res, closed := r.res, lr.closed
	res.Attempted = lr.warmup.attempted + closed.attempted + lr.open.attempted
	res.Failed = lr.warmup.failed + closed.failed + lr.open.failed
	r.e2e("goodput_qps", lr.goodput)
	r.e2e("p50_ms", quantile(lr.lat, 0.50))
	r.e2e("cpu_ms_per_op", ms(closed.cpu)/float64(closed.okCount()))
	r.e2e("alloc_kb_per_op", float64(closed.allocB)/1024/float64(closed.okCount()))
	res.Samples["goodput_qps"] = closed.okCount()
	res.Samples["p50_ms"], res.Samples["p95_ms"], res.Samples["p99_ms"] = len(lr.lat), len(lr.lat), len(lr.lat)
	fmt.Printf("open phase: p50 %.4f ms, p95 %.4f ms (limit %g ms), p99 %.4f ms over %d ops at %g qps\n",
		quantile(lr.lat, 0.50), quantile(lr.lat, 0.95), r.spec.limitMS, quantile(lr.lat, 0.99), len(lr.lat), r.spec.rateQPS)
}

// checkHarness decides whether the numbers are the program's or the
// generator's, and voids the run in the second case.
func (r *run) checkHarness(lr *loadRun) {
	ceiling := lr.goodput / lr.nullRate
	late50, late99 := quantile(lr.late, 0.50), quantile(lr.late, 0.99)
	fmt.Printf("harness: null handler %.0f qps, ceiling ratio %.3f, generator late p50 %.4f ms p99 %.4f ms, connections opened %d\n",
		lr.nullRate, ceiling, late50, late99, lr.conns)
	if r.smoke {
		return
	}
	if ceiling > maxCeiling {
		r.invalidf("goodput %.0f qps is %.2f of the null handler's %.0f qps (limit %.2f): the harness is the bottleneck", lr.goodput, ceiling, lr.nullRate, maxCeiling)
	}
	if lr.conns != lr.dr.clients {
		r.invalidf("the transport opened %d connections for %d clients", lr.conns, lr.dr.clients)
	}
	if p50, p99 := quantile(lr.lat, 0.50), quantile(lr.lat, 0.99); late50 > maxLateShareP50*p50 || late99 > maxLateShareP99*p99 {
		r.invalidf("the generator ran %.3f / %.3f ms late at p50 / p99, over %.0f%% / %.0f%% of the %.3f / %.3f ms latencies it is timing",
			late50, late99, 100*maxLateShareP50, 100*maxLateShareP99, p50, p99)
	}
}

// checkOutputs makes the checks a single answer cannot: the latency
// limit, the servers' own failure counters, routed ≡ direct, ann ≈ exact.
func (r *run) checkOutputs(lr *loadRun) {
	sp := r.spec
	if lr.dr.firstErr != nil {
		r.failf("first failed op: %v", lr.dr.firstErr)
	}
	if p95 := quantile(lr.lat, 0.95); !r.smoke && p95 > sp.limitMS {
		r.failf("open-phase p95 %.3f ms is over the workload's limit of %g ms at %g qps", p95, sp.limitMS, sp.rateQPS)
	}
	is5xx := func(l map[string]string) bool { return l["class"] == "5xx" }
	degraded := counterDelta(lr.before, lr.after, "serve_degraded_requests_total", nil)
	err5xx := counterDelta(lr.before, lr.after, "serve_http_requests_total", is5xx) + counterDelta(lr.before, lr.after, "router_requests_total", is5xx)
	if degraded != 0 || err5xx != 0 {
		r.failf("server counted %g degraded answers and %g 5xx during the run", degraded, err5xx)
	}
	if sp.routed {
		if err := r.checkRouted(lr); err != nil {
			r.failf("routed vs direct: %v", err)
		}
	}
	lr.annFallbacks = counterDelta(lr.before, lr.after, "ann_fallback_total", nil)
	dp := lr.tp.backends[0].Dispatcher()
	if dp.ShardANNReady(0) && (sp.mode == api.ModeANN || r.traced) {
		lr.annRecall = annRecallAt10(dp, lr.fx, r.seed)
		fmt.Printf("ann_recall_at_10 %.4f over %d users, ann fallbacks %g\n", lr.annRecall, recallUsers, lr.annFallbacks)
		if sp.mode == api.ModeANN && lr.annRecall < minANNRecall {
			r.failf("ann_recall_at_10 = %.4f, below %.2f", lr.annRecall, minANNRecall)
		}
		if sp.mode == api.ModeANN && lr.annFallbacks != 0 {
			r.failf("%g ann requests fell back to exhaustive scoring", lr.annFallbacks)
		}
	}
}

// checkDurable ends an ingesting run: the overlay must have grown by two
// directed edges per event acknowledged since the compaction, and the
// reopened ledger must replay exactly the acknowledged events.
func (r *run) checkDurable(lr *loadRun) error {
	since := lr.acked - lr.warmup.acked - lr.closed.acked
	if got := lr.tp.app.Overlay().DeltaEdges(); got != 2*since {
		r.failf("overlay holds %d delta edges after %d acked events since compaction, want %d", got, since, 2*since)
	}
	lr.tp.close()
	replayed, err := replayCount(lr.tp.ledDir)
	if err != nil {
		return err
	}
	if replayed != lr.acked {
		r.failf("ledger replays %d events after %d were acknowledged", replayed, lr.acked)
	}
	fmt.Printf("ingest: %d events acknowledged, %d replayed from the reopened ledger\n", lr.acked, replayed)
	if r.traced {
		r.layer("ingest.events_acked", float64(lr.acked))
		r.layer("ingest.events_replayed", float64(replayed))
	}
	return nil
}

func cacheStats(tp *topology) (hits, misses uint64) {
	for _, b := range tp.backends {
		h, m, _ := b.Dispatcher().CacheStats()
		hits, misses = hits+h, misses+m
	}
	return hits, misses
}

// compact checks that the overlay grew by two directed edges per
// acknowledged event, then folds it into a fresh CSR through the admin
// endpoint, timed: the hot-swap the open phase then runs on.
func (r *run) compact(lr *loadRun) error {
	dr, tp, acked := lr.dr, lr.tp, lr.warmup.acked+lr.closed.acked
	if got, want := tp.app.Overlay().DeltaEdges(), 2*acked; got != want {
		r.failf("overlay holds %d delta edges after %d acked events, want %d", got, acked, want)
	}
	t0 := time.Now()
	resp, err := dr.hc.Post(tp.url+"/v1/admin/compact", "application/json", nil)
	if err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("compact: status %d", resp.StatusCode)
	}
	fmt.Printf("compaction of %d delta edges between the phases: %.3f ms\n", 2*acked, ms(time.Since(t0)))
	return nil
}

// replayCount reopens the ledger directory and counts the events
// recovery replays.
func replayCount(dir string) (int, error) {
	n := 0
	led, _, err := ledger.Open(dir, ledger.Options{OnBatch: func(b ledger.Batch) error {
		n += len(b.Events)
		return nil
	}})
	if err != nil {
		return 0, fmt.Errorf("reopen ledger: %w", err)
	}
	return n, led.Close()
}

// checkRouted replays read ops of the stream against the router and
// against a backend directly and compares the bodies byte for byte.
func (r *run) checkRouted(lr *loadRun) error {
	dr, tp := lr.dr, lr.tp
	gen := newOpGen(lr.fx.d, r.spec.mix, r.seed)
	direct := tp.listeners[0].url
	for i := 0; i < routedSamples; i++ {
		o := gen.next()
		var bodies [2][]byte
		for j, base := range []string{tp.url, direct} {
			req, err := o.httpRequest(base, r.spec.mode, nil)
			if err != nil {
				return err
			}
			resp, err := dr.hc.Do(req)
			if err != nil {
				return err
			}
			bodies[j], err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				return fmt.Errorf("%s %s: status %d: %v", kindNames[o.kind], base, resp.StatusCode, err)
			}
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			return fmt.Errorf("sample %d (%s): routed body differs from the backend's\nrouted: %s\ndirect: %s", i, kindNames[o.kind], bodies[0], bodies[1])
		}
	}
	return nil
}

// annRecallAt10 is the mean overlap of the ann top-10 with the exact
// top-10 over seeded users, both asked of the same dispatcher.
func annRecallAt10(dp *shard.Dispatcher, fx *fixture, seed int64) float64 {
	g := rng.New(seed).Split("bench-recall")
	ctx := context.Background()
	n := recallUsers
	if n > fx.d.NumUsers {
		n = fx.d.NumUsers
	}
	var sum float64
	for _, u := range g.Perm(fx.d.NumUsers)[:n] {
		exact, _, _ := dp.Recommend(ctx, u, topK, shard.Query{Mode: api.ModeExact})
		approx, _, _ := dp.Recommend(ctx, u, topK, shard.Query{Mode: api.ModeANN})
		sum += eval.Overlap(exact.Items, approx.Items)
	}
	return sum / float64(n)
}
