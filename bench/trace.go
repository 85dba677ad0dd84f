package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/ann"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/ingest"
	"repro/internal/ledger"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/shard"
)

// replayOps is how many ops of the stream the traced run walks through
// each layer.
const replayOps = 2000

// The layers of a request, outermost first. The traced run makes one
// pass over the same ops per layer, calling that layer's public entry
// point from outside; a span's parent is the same op's span one layer
// out, and a layer's self time is its span minus its child's.
const (
	layClient = iota
	layRouter
	layServe
	layShard
	layLeaves
	numLayers
)

// opTimes is one op's span per layer (0 = layer not on this op's path)
// and the named leaves under the innermost one.
type opTimes struct {
	kind   opKind
	dur    [numLayers]time.Duration
	spanID [numLayers]int
	filled bool // the shard pass saw this recommend fill the score cache
	leaves map[string]time.Duration
}

// replay is the traced run's state.
type replay struct {
	r     *run
	lr    *loadRun
	ops   []op
	times []opTimes
	acked int

	*probeTargets
	usersByItem [][]int
	scratch     []float64
}

// probeTargets is what the leaf pass and the probes call into and the
// server keeps private: an index over the same item vectors, and a
// ledger and applier over the same dataset.
type probeTargets struct {
	vs    eval.VectorScorer // nil when the workload serves without an index
	index *ann.Index
	led   *ledger.Ledger
	app   *ingest.Applier
	pairs *pairGen // feeds only this pair, never the server
}

// tracedServing walks the first replayOps ops of the stream through
// every layer, records the spans, and derives the per-layer metrics.
func (r *run) tracedServing(lr *loadRun) error {
	n := replayOps
	if r.smoke {
		n = 200
	}
	pt, err := r.openProbeTargets(lr.fx)
	if err != nil {
		return err
	}
	defer pt.led.Close()
	rp := &replay{r: r, lr: lr, probeTargets: pt, times: make([]opTimes, n), scratch: make([]float64, lr.fx.d.NumItems)}
	rp.usersByItem = make([][]int, lr.fx.d.NumItems)
	for _, p := range lr.fx.d.Train {
		rp.usersByItem[p[1]] = append(rp.usersByItem[p[1]], p[0])
	}
	r.replay = rp
	gen := newOpGen(lr.fx.d, r.spec.mix, r.seed)
	for i := 0; i < n; i++ {
		o := gen.next()
		rp.ops = append(rp.ops, o)
		rp.times[i].kind = o.kind
		for l := range rp.times[i].spanID {
			rp.times[i].spanID[l] = -1
		}
	}
	// Untraced baseline first: the same ops through the client with no
	// span recorded, so the difference is what tracing itself costs.
	t0 := time.Now()
	for _, o := range rp.ops {
		if err := rp.clientCall(o); err != nil {
			return fmt.Errorf("untraced replay: %w", err)
		}
	}
	untraced := time.Since(t0)

	t0 = time.Now()
	if err := rp.pass(layClient, "client", func(i int, o op) error { return rp.clientCall(o) }); err != nil {
		return err
	}
	traced := time.Since(t0)
	r.layer("harness.trace_overhead_frac", (traced-untraced).Seconds()/untraced.Seconds())

	var routerAlloc, serveAlloc, shardAlloc allocDelta
	var respBytes int
	if lr.tp.router != nil {
		routerAlloc.start()
		err := rp.pass(layRouter, "router.http", func(i int, o op) error {
			_, err := rp.handlerCall(lr.tp.router, o)
			return err
		})
		routerAlloc.stop()
		if err != nil {
			return err
		}
	}
	serveAlloc.start()
	err = rp.pass(layServe, "serve.http", func(i int, o op) error {
		n, err := rp.handlerCall(rp.ownerBackend(o), o)
		respBytes += n
		return err
	})
	serveAlloc.stop()
	if err != nil {
		return err
	}
	shardAlloc.start()
	err = rp.pass(layShard, "shard", rp.shardCall)
	shardAlloc.stop()
	if err != nil {
		return err
	}
	if err := rp.leafPass(); err != nil {
		return err
	}
	lr.acked += rp.acked

	rp.metrics(routerAlloc, serveAlloc, shardAlloc, respBytes)
	r.loadLayerMetrics(lr)
	r.probes(lr.fx, lr.tp, pt)
	return nil
}

type allocDelta struct {
	before, after runtime.MemStats
}

func (a *allocDelta) start()          { runtime.ReadMemStats(&a.before) }
func (a *allocDelta) stop()           { runtime.ReadMemStats(&a.after) }
func (a *allocDelta) kb() float64     { return float64(a.after.TotalAlloc-a.before.TotalAlloc) / 1024 }
func (a *allocDelta) allocs() float64 { return float64(a.after.Mallocs - a.before.Mallocs) }

// pass runs call for every op that reaches the layer and records one
// span per op, parented on the op's span in the enclosing layer.
func (rp *replay) pass(layer int, name string, call func(i int, o op) error) error {
	for i, o := range rp.ops {
		if layer == layShard && o.kind == opIngest {
			continue // the ingest handler does not go through the dispatcher
		}
		spanName := name
		if layer == layShard {
			spanName = "shard." + kindNames[o.kind]
		}
		ot := &rp.times[i]
		id := rp.r.tr.start(spanName, rp.parentSpan(ot, layer), i)
		t0 := time.Now()
		err := call(i, o)
		ot.dur[layer] = time.Since(t0)
		rp.r.tr.end(id)
		ot.spanID[layer] = id
		if err != nil {
			return fmt.Errorf("traced replay, %s, op %d (%s): %w", name, i, kindNames[o.kind], err)
		}
	}
	return nil
}

func (rp *replay) parentSpan(ot *opTimes, layer int) int {
	for l := layer - 1; l >= 0; l-- {
		if ot.spanID[l] >= 0 {
			return ot.spanID[l]
		}
	}
	return -1
}

// clientCall is the whole path: typed client over loopback.
func (rp *replay) clientCall(o op) error {
	acked, err := rp.lr.dr.issue(o)
	rp.acked += acked
	return err
}

// handlerCall invokes an http.Handler in process with the bytes the
// typed client would have sent and returns the response size.
func (rp *replay) handlerCall(h http.Handler, o op) (int, error) {
	var evs []api.IngestEvent
	if o.kind == opIngest {
		pg := rp.lr.dr.pairs
		pg.mu.Lock()
		defer pg.mu.Unlock()
		evs = pg.freshEvents(ingestBatch)
	}
	req, err := o.httpRequest("", rp.r.spec.mode, evs)
	if err != nil {
		return 0, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	rp.acked += len(evs)
	return rec.Body.Len(), nil
}

// ownerBackend is the backend the router would send o to (batches are
// split across both; the first stands in).
func (rp *replay) ownerBackend(o op) *serve.Server {
	tp := rp.lr.tp
	if tp.router == nil {
		return tp.backends[0]
	}
	switch o.kind {
	case opRecommend:
		return tp.backends[tp.router.BackendFor(shard.UserKey(o.user))]
	case opSimilar, opNearest:
		return tp.backends[tp.router.BackendFor(shard.ItemKey(o.item))]
	case opAnalogy:
		return tp.backends[tp.router.BackendFor(shard.ItemKey(o.a))]
	}
	return tp.backends[0]
}

// probeUsers mirrors the serve handler's probe selection for /similar:
// up to 16 training users of the item, spread over the matching set.
func probeUsers(usersByItem [][]int, item int) []int {
	const maxProbes = serve.DefaultMaxProbes
	m := usersByItem[item]
	if len(m) <= maxProbes {
		return m
	}
	probes := make([]int, maxProbes)
	for j := range probes {
		probes[j] = m[(item%len(m)+j*len(m)/maxProbes)%len(m)]
	}
	return probes
}

// shardCall invokes the dispatcher method the handler for o would.
// The query endpoints default to ann when the client names no mode.
func (rp *replay) shardCall(i int, o op) error {
	dp := rp.ownerBackend(o).Dispatcher()
	ctx := context.Background()
	q := shard.Query{Mode: rp.r.spec.mode}
	item := func(id int) api.EntityRef { return api.EntityRef{Kind: api.KindItem, ID: id} }
	switch o.kind {
	case opRecommend:
		_, misses0, _ := dp.CacheStats()
		dp.Recommend(ctx, o.user, topK, q)
		if _, misses1, _ := dp.CacheStats(); misses1 > misses0 {
			rp.times[i].filled = true
		}
	case opBatch:
		dp.RecommendBatch(ctx, o.users, topK, q)
	case opSimilar:
		if _, _, _, _, err := dp.Similar(ctx, o.item, topK, probeUsers(rp.usersByItem, o.item), q); err != nil {
			return err
		}
	case opNearest:
		if q.Mode == "" {
			q.Mode = api.ModeANN
		}
		if _, _, _, err := dp.Nearest(ctx, item(o.item), topK, "", q); err != nil {
			return err
		}
	case opAnalogy:
		if q.Mode == "" {
			q.Mode = api.ModeANN
		}
		if _, _, _, err := dp.Analogy(ctx, item(o.a), item(o.b), item(o.c), topK, "", q); err != nil {
			return err
		}
	}
	return nil
}

func (r *run) openProbeTargets(fx *fixture) (*probeTargets, error) {
	pt := &probeTargets{app: ingest.New(fx.d, fx.d.CSR()), pairs: newPairGen(fx.d, r.seed+1)}
	if vs, ok := fx.scorer.(eval.VectorScorer); ok && !r.spec.noANN {
		pt.vs = vs
		id := r.tr.start("ann.build", -1, -1)
		pt.index = ann.Build(fx.d.NumItems, vs.Dim(), vs.ItemVector, ann.DefaultConfig())
		r.tr.end(id)
	}
	led, _, err := ledger.Open(filepath.Join(r.scratch, "probe-ledger"), ledger.Options{})
	if err != nil {
		return nil, fmt.Errorf("open probe ledger: %w", err)
	}
	pt.led = led
	return pt, nil
}

// notTrained is the accept filter an ann recommend searches under: the
// user's training items are out, through a per-user set as the
// dispatcher builds one.
func notTrained(d *dataset.Dataset, user int) func(int) bool {
	mask := make(map[int]struct{}, len(d.TrainByUser[user]))
	for _, it := range d.TrainByUser[user] {
		mask[it] = struct{}{}
	}
	return func(id int) bool { _, in := mask[id]; return !in }
}

// leafPass times the innermost calls of each op: the scorer and the
// rank for an exact recommend, the index search for an ann one or an
// embedding query, and prepare/append/apply for an ingest.
func (rp *replay) leafPass() error {
	d := rp.lr.fx.d
	tr := rp.r.tr
	for i, o := range rp.ops {
		ot := &rp.times[i]
		parent := rp.parentSpan(ot, layLeaves)
		ot.leaves = map[string]time.Duration{}
		leaf := func(name string, fn func()) {
			id := tr.start(name, parent, i)
			t0 := time.Now()
			fn()
			ot.leaves[name] = time.Since(t0)
			tr.end(id)
		}
		switch {
		case o.kind == opRecommend && rp.r.spec.mode != api.ModeANN:
			if ot.filled {
				leaf("core.score_items", func() { rp.lr.fx.scorer.ScoreItems(o.user, rp.scratch) })
			}
			leaf("eval.mask_topk", func() {
				eval.MaskTrain(d, o.user, rp.scratch)
				eval.TopK(rp.scratch, topK)
			})
		case o.kind == opRecommend && rp.index != nil:
			accept := notTrained(d, o.user)
			leaf("ann.search", func() { rp.index.Search(rp.vs.UserVector(o.user), topK, 0, accept) })
		case (o.kind == opNearest || o.kind == opAnalogy) && rp.index != nil && rp.r.spec.mode != api.ModeExact:
			qv := rp.vs.ItemVector(o.item)
			if o.kind == opAnalogy {
				a, b, c := rp.vs.ItemVector(o.a), rp.vs.ItemVector(o.b), rp.vs.ItemVector(o.c)
				qv = make([]float64, len(a))
				for j := range qv {
					qv[j] = a[j] - b[j] + c[j]
				}
			}
			leaf("ann.search", func() {
				rp.index.Search(qv, topK, 0, func(id int) bool { return id != o.item })
			})
		case o.kind == opIngest:
			evs := rp.pairs.freshEvents(ingestBatch)
			var levs []ledger.Event
			var perr *api.Error
			leaf("ingest.prepare", func() { levs, perr = rp.app.Prepare(evs) })
			if perr != nil {
				return fmt.Errorf("probe prepare: %v", perr)
			}
			var err error
			leaf("ledger.append", func() { _, err = rp.led.Append(levs) })
			if err != nil {
				return fmt.Errorf("probe append: %w", err)
			}
			leaf("ingest.apply", func() { err = rp.app.Apply(levs) })
			if err != nil {
				return fmt.Errorf("probe apply: %w", err)
			}
		}
	}
	return nil
}

// self returns the op's self time at layer: its span minus the span of
// the next layer in that the op reached (or its leaves, innermost).
func (ot *opTimes) self(layer int) (time.Duration, bool) {
	if layer == layLeaves {
		return ot.leafSum(), len(ot.leaves) > 0
	}
	if ot.dur[layer] == 0 {
		return 0, false
	}
	for l := layer + 1; l < layLeaves; l++ {
		if ot.dur[l] > 0 {
			return ot.dur[layer] - ot.dur[l], true
		}
	}
	return ot.dur[layer] - ot.leafSum(), true
}

func (ot *opTimes) leafSum() time.Duration {
	var sum time.Duration
	for _, d := range ot.leaves {
		sum += d
	}
	return sum
}

// medianUS is the median, in µs, of f over the ops f accepts.
func (rp *replay) medianUS(f func(*opTimes) (time.Duration, bool)) (float64, int) {
	var xs []float64
	for i := range rp.times {
		if d, ok := f(&rp.times[i]); ok {
			xs = append(xs, us(d))
		}
	}
	return median(xs), len(xs)
}

func spanOf(layer int, kind opKind) func(*opTimes) (time.Duration, bool) {
	return func(ot *opTimes) (time.Duration, bool) {
		return ot.dur[layer], ot.dur[layer] > 0 && ot.kind == kind
	}
}

// budgetGroups are the budget's rows: one per endpoint, with the
// recommends that filled the score cache apart from those that hit it.
// A fill costs ten times a hit, and medians only add up over ops that
// do the same work.
var budgetGroups = func() []func(*opTimes) (string, bool) {
	var gs []func(*opTimes) (string, bool)
	for kind := opKind(0); kind < numKinds; kind++ {
		for _, filled := range []bool{false, true} {
			label := kindNames[kind]
			if filled {
				label += " (fill)"
			}
			gs = append(gs, func(ot *opTimes) (string, bool) { return label, ot.kind == kind && ot.filled == filled })
		}
	}
	return gs
}()

// budgetRow is one endpoint's line of the layer budget: the median
// client span and each layer's median self time, in µs. on marks the
// layers the endpoint's ops reach.
type budgetRow struct {
	label  string
	n      int
	client float64
	self   [numLayers]float64
	on     [numLayers]bool
}

func (b *budgetRow) sum() float64 {
	var s float64
	for _, v := range b.self {
		s += v
	}
	return s
}

// budget computes one row per group of like ops, then an "all" row that
// weights those rows by their op counts. (A median over ops of
// different endpoints would not add up: the median request is a
// recommend, the median shard time is not a recommend's.)
func (rp *replay) budget() []budgetRow {
	all := budgetRow{label: "all"}
	var rows []budgetRow
	for _, in := range budgetGroups {
		var row budgetRow
		row.client, row.n = rp.medianUS(func(ot *opTimes) (time.Duration, bool) {
			label, ok := in(ot)
			if ok {
				row.label = label
			}
			return ot.dur[layClient], ok
		})
		if row.n == 0 {
			continue
		}
		for l := 0; l < numLayers; l++ {
			var cnt int
			row.self[l], cnt = rp.medianUS(func(ot *opTimes) (time.Duration, bool) {
				if _, ok := in(ot); !ok {
					return 0, false
				}
				return ot.self(l)
			})
			row.on[l] = cnt > 0
			all.self[l] += row.self[l] * float64(row.n)
			all.on[l] = all.on[l] || row.on[l]
		}
		all.client += row.client * float64(row.n)
		all.n += row.n
		rows = append(rows, row)
	}
	all.client /= float64(all.n)
	for l := range all.self {
		all.self[l] /= float64(all.n)
	}
	return append(rows, all)
}

// metrics turns the replay's spans into the per-layer numbers.
func (rp *replay) metrics(routerAlloc, serveAlloc, shardAlloc allocDelta, respBytes int) {
	r := rp.r
	set := func(name string, f func(*opTimes) (time.Duration, bool)) {
		v, n := rp.medianUS(f)
		r.layer(name, v)
		r.res.Samples[name] = n
	}
	n := float64(len(rp.ops))
	rows := rp.budget()
	all := rows[len(rows)-1]
	r.layer("client.self_us", all.self[layClient])
	r.layer("serve.self_us", all.self[layServe])
	r.layer("shard.self_us", all.self[layShard])
	if rp.lr.tp.router != nil {
		r.layer("router.self_us", all.self[layRouter])
		set("router.http_us", func(ot *opTimes) (time.Duration, bool) { return ot.dur[layRouter], true })
		for _, row := range rows {
			if row.label == kindNames[opBatch] {
				r.layer("router.batch_self_us", row.self[layRouter])
			}
		}
		r.layer("router.alloc_kb_per_op", (routerAlloc.kb()-serveAlloc.kb())/n)
	}
	for kind := opKind(0); kind < numKinds; kind++ {
		if r.spec.mix[kind] > 0 {
			set("serve."+kindNames[kind]+"_us", spanOf(layServe, kind))
		}
	}
	r.layer("serve.resp_bytes", float64(respBytes)/n)
	r.layer("serve.allocs_per_op", serveAlloc.allocs()/n)
	r.layer("serve.alloc_kb_per_op", serveAlloc.kb()/n)
	for _, kind := range []opKind{opBatch, opSimilar, opNearest, opAnalogy} {
		if r.spec.mix[kind] > 0 {
			set("shard."+kindNames[kind]+"_us", spanOf(layShard, kind))
		}
	}
	r.layer("shard.alloc_kb_per_op", shardAlloc.kb()/n)
}

// loadLayerMetrics reports what the load phases measured about the
// harness, the client and the servers' own telemetry.
func (r *run) loadLayerMetrics(lr *loadRun) {
	nullLat := lr.null.latencies(nil)
	r.layer("harness.null_goodput_qps", lr.nullRate)
	r.layer("harness.null_p50_ms", quantile(nullLat, 0.5))
	r.layer("harness.ceiling_ratio", lr.goodput/lr.nullRate)
	r.layer("harness.gen_late_p99_ms", quantile(lr.late, 0.99))
	r.layer("harness.conns_opened", float64(lr.conns))
	r.layer("harness.goodput_window_iqr_frac", iqrFrac(lr.rates))

	miss := lr.open.failed
	for _, s := range lr.open.samples {
		if s.ok && ms(s.lat) > r.spec.limitMS {
			miss++
		}
	}
	r.layer("client.slo_miss_frac", float64(miss)/float64(lr.open.attempted))
	r.layer("p95_ms", quantile(lr.lat, 0.95))
	r.layer("p99_ms", quantile(lr.lat, 0.99))

	isIngest := func(k opKind) bool { return k == opIngest }
	if ack := lr.open.latencies(isIngest); len(ack) > 0 {
		r.layer("ingest_ack_p50_ms", quantile(ack, 0.5))
		r.layer("ingest_ack_p99_ms", quantile(ack, 0.99))
		r.res.Samples["ingest_ack_p50_ms"], r.res.Samples["ingest_ack_p99_ms"] = len(ack), len(ack)
	}
	r.layer("ann_recall_at_10", lr.annRecall)

	// The servers' own view of the same phases, from /metrics deltas.
	hist := histDelta(lr.before, lr.after, "serve_http_request_duration_ms")
	r.layer("serve.server_p50_ms", hist.Quantile(0.5))
	r.layer("serve.server_p99_ms", hist.Quantile(0.99))
	is5xx := func(l map[string]string) bool { return l["class"] == "5xx" }
	r.layer("serve.shed", counterDelta(lr.before, lr.after, "serve_shed_requests_total", nil))
	r.layer("serve.degraded", counterDelta(lr.before, lr.after, "serve_degraded_requests_total", nil))
	r.layer("serve.http_5xx", counterDelta(lr.before, lr.after, "serve_http_requests_total", is5xx))
	if lr.tp.router != nil {
		r.layer("router.requests", counterDelta(lr.before, lr.after, "router_requests_total", nil))
		r.layer("router.retries", counterDelta(lr.before, lr.after, "router_backend_retries_total", nil))
	}
	if total := lr.hits + lr.misses; total > 0 {
		r.layer("shard.cache_hit_ratio", float64(lr.hits)/float64(total))
	}
	r.layer("shard.cache_fills", float64(lr.misses))
	r.layer("shard.ann_fallbacks", lr.annFallbacks)
	r.layer("obs.scrape_ms", ms(lr.after.took))
	r.layer("obs.scrape_bytes", float64(lr.after.bytes))
}

// printBudget prints, per endpoint, the median client span and each
// layer's median self time: where a request's time goes.
func (r *run) printBudget(w *os.File) {
	rp := r.replay
	if rp == nil {
		return
	}
	names := [numLayers]string{"client", "router", "serve", "shard", "leaves"}
	fmt.Fprintf(w, "-- layer budget: median µs per op over the first %d ops of the stream, one goroutine\n", len(rp.ops))
	fmt.Fprintf(w, "   %-16s %6s %9s |", "endpoint", "n", "client")
	for _, n := range names {
		fmt.Fprintf(w, " %11s", n+".self")
	}
	fmt.Fprintf(w, " | %9s\n", "sum(self)")
	rows := rp.budget()
	for _, row := range rows {
		fmt.Fprintf(w, "   %-16s %6d %9.1f |", row.label, row.n, row.client)
		for l := range row.self {
			if row.on[l] {
				fmt.Fprintf(w, " %11.1f", row.self[l])
			} else {
				fmt.Fprintf(w, " %11s", "-")
			}
		}
		fmt.Fprintf(w, " | %9.1f\n", row.sum())
	}
	all := rows[len(rows)-1]
	fmt.Fprintf(w, "   self times sum to %.1f%% of the client span (all = the rows above weighted by op count)\n", 100*all.sum()/all.client)
	if math.Abs(all.sum()/all.client-1) > 0.10 {
		fmt.Fprintf(w, "   WARNING: more than 10%% apart — the passes saw different machine states; rerun before reading the budget\n")
	}
	leafNames := map[string]bool{}
	for i := range rp.times {
		for n := range rp.times[i].leaves {
			leafNames[n] = true
		}
	}
	for _, n := range sortedKeys(leafNames) {
		v, cnt := rp.medianUS(func(ot *opTimes) (time.Duration, bool) { d, ok := ot.leaves[n]; return d, ok })
		fmt.Fprintf(w, "   leaf %-22s %6d ops, median %9.1f µs\n", n, cnt, v)
	}
}
