package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/autograd"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/ledger"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/serve/api"
	"repro/internal/shard"
	"repro/internal/tensor"
)

// sink receives the results of timed read loops so the compiler cannot
// drop them.
var sink int

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// histDelta is the growth of a latency histogram, over all its label
// sets, between two scrapes of the last target: a serve backend (the
// router, scraped first when there is one, has its own family).
func histDelta(before, after *scrapeSet, family string) *obs.PromHistogram {
	all := func(map[string]string) bool { return true }
	i := len(after.samples) - 1
	return obs.HistogramFromSamples(after.samples[i], family, all).
		Sub(obs.HistogramFromSamples(before.samples[i], family, all))
}

// timeEach calls fn n times and returns the median duration of a call.
func timeEach(n int, fn func(i int)) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		fn(i)
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// timeBlock times n back-to-back calls and returns the mean duration
// of one: for calls too short to time singly.
func timeBlock(n int, fn func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(t0) / time.Duration(n)
}

// probes times single calls into each layer's public functions on the
// workload's own fixture. tp is nil on the training workload.
func (r *run) probes(fx *fixture, tp *topology, pt *probeTargets) {
	d := fx.d
	ctx := context.Background()
	g := rng.New(r.seed).Split("bench-probes")
	users := g.Perm(d.NumUsers)
	if len(users) > 200 {
		users = users[:200]
	}
	user := func(i int) int { return users[i%len(users)] }
	reps := 200
	if r.smoke {
		reps = 20
	}

	for name, dur := range map[string]time.Duration{
		"facility.instantiate_ms": r.stages["facility.instantiate"],
		"trace.generate_ms":       r.stages["trace.generate"],
		"dataset.build_ms":        r.stages["dataset.build"],
		"graph.freeze_ms":         r.stages["graph.freeze"],
	} {
		r.layer(name, ms(dur))
	}

	// shard: the dispatcher's recommend on a warm cache, on a cold one,
	// and through the index.
	if tp != nil {
		dp := tp.backends[0].Dispatcher()
		exact := shard.Query{Mode: api.ModeExact}
		for i := 0; i < len(users) && i < 100; i++ {
			dp.Recommend(ctx, user(i), topK, exact)
		}
		hit := timeEach(reps, func(i int) { dp.Recommend(ctx, user(i%100), topK, exact) })
		r.layer("shard.recommend_hit_us", us(hit))
		var miss []float64
		for i := 0; i < reps/4+1; i++ {
			dp.Invalidate()
			t0 := time.Now()
			dp.Recommend(ctx, user(i), topK, exact)
			miss = append(miss, float64(time.Since(t0)))
		}
		r.layer("shard.recommend_miss_us", us(time.Duration(median(miss))))
		if dp.ShardANNReady(0) {
			q := shard.Query{Mode: api.ModeANN}
			r.layer("shard.recommend_ann_us", us(timeEach(reps, func(i int) { dp.Recommend(ctx, user(i), topK, q) })))
		}
	}

	// core + eval: one catalog-wide score, mask and top-K.
	buf := make([]float64, d.NumItems)
	r.layer("core.score_items_us", us(timeEach(reps, func(i int) { fx.scorer.ScoreItems(user(i), buf) })))
	r.layer("eval.mask_train_us", us(timeBlock(reps*10, func(i int) { eval.MaskTrain(d, user(i), buf) })))
	fx.scorer.ScoreItems(user(0), buf)
	r.layer("eval.topk_us", us(timeEach(reps, func(int) { eval.TopK(buf, topK) })))
	if _, done := r.res.PerLayer["eval.evaluate_s"]; !done {
		t0 := time.Now()
		eval.EvaluateCtx(ctx, d, fx.scorer, evalK, 2)
		r.layer("eval.evaluate_s", time.Since(t0).Seconds())
	}
	if m, ok := fx.scorer.(*core.Model); ok {
		path := filepath.Join(r.scratch, "probe.snapshot")
		snap := m.Snapshot(d.Name)
		t0 := time.Now()
		err := snap.SaveFile(path)
		r.layer("core.snapshot_save_ms", ms(time.Since(t0)))
		if err == nil {
			t0 = time.Now()
			_, err = core.LoadSnapshotFile(path)
			r.layer("core.snapshot_load_ms", ms(time.Since(t0)))
		}
		if err != nil {
			r.failf("snapshot round trip: %v", err)
		}
	}

	if tp != nil {
		r.trainLayerMetrics(r.trainEvents)
	}
	r.mathProbes(reps)
	r.graphProbes(fx, reps)
	r.annProbes(fx, pt, user, reps)
	r.ingestProbes(fx, pt, reps)
}

// mathProbes times the training kernels at CKAT's shapes: they do not
// depend on the fixture, so every workload reports the same work.
func (r *run) mathProbes(reps int) {
	g := rng.New(r.seed).Split("bench-math")
	fill := func(m *tensor.Dense) *tensor.Dense {
		for i := range m.Data {
			m.Data[i] = g.NormFloat64()
		}
		return m
	}
	// One propagation layer stack on a 1024-row batch: 64→64, 64→32, 32→16.
	var flops float64
	type mm struct{ dst, a, b *tensor.Dense }
	var mms []mm
	for _, s := range [][2]int{{64, 64}, {64, 32}, {32, 16}} {
		mms = append(mms, mm{tensor.New(1024, s[1]), fill(tensor.New(1024, s[0])), fill(tensor.New(s[0], s[1]))})
		flops += 2 * 1024 * float64(s[0]) * float64(s[1])
	}
	per := timeBlock(reps, func(int) {
		for _, m := range mms {
			tensor.MatMul(m.dst, m.a, m.b)
		}
	})
	r.layer("tensor.matmul_gflops", flops/per.Seconds()/1e9)

	// Adam over a CKAT-sized parameter set: 1,300 entities × 64 plus the
	// three layer matrices.
	var params []*autograd.Param
	for i, s := range [][2]int{{1300, 64}, {64, 128}, {32, 128}, {16, 64}} {
		p := autograd.NewParam(fmt.Sprintf("probe%d", i), s[0], s[1])
		fill(p.Value)
		fill(p.Grad)
		params = append(params, p)
	}
	opt := optim.NewAdam(params, 0.01, 0)
	r.layer("optim.adam_step_us", us(timeEach(reps, func(int) { opt.Step() })))

	pool := parallel.New(2)
	r.layer("parallel.dispatch_us", us(timeEach(reps, func(int) { pool.Run(context.Background(), 2, func(int) {}) })))
}

func (r *run) graphProbes(fx *fixture, reps int) {
	c := fx.d.CSR()
	g := rng.New(r.seed).Split("bench-graph")
	heads := make([]int, 1024)
	for i := range heads {
		heads[i] = fx.d.ItemEnt[g.Intn(fx.d.NumItems)]
	}
	s := graph.NewSampler(c, nil)
	rels, tails := make([]int, 8), make([]int, 8)
	r.layer("graph.sample_neighbors_ns", float64(timeBlock(reps*50, func(i int) {
		s.SampleNeighbors(heads[i%len(heads)], 8, g, rels, tails)
	})))
	r.layer("graph.neighbors_ns", float64(timeBlock(reps*500, func(i int) {
		for _, t := range c.NeighborTails(heads[i%len(heads)]) {
			sink += t
		}
	})))
}

// annProbes times the bench-owned index: its build, a plain search and
// one filtered the way recommend filters training items.
func (r *run) annProbes(fx *fixture, pt *probeTargets, user func(int) int, reps int) {
	ix, vs := pt.index, pt.vs
	if ix == nil {
		return
	}
	r.layer("ann.build_s", ix.BuildDuration().Seconds())
	r.layer("ann.levels", float64(ix.Levels()))
	r.layer("ann.search_us", us(timeEach(reps, func(i int) { ix.Search(vs.UserVector(user(i)), topK, 0, nil) })))
	accepts := make([]func(int) bool, reps)
	for i := range accepts {
		accepts[i] = notTrained(fx.d, user(i))
	}
	r.layer("ann.search_filtered_us", us(timeEach(reps, func(i int) { ix.Search(vs.UserVector(user(i)), topK, 0, accepts[i]) })))
}

// ingestProbes times the write path piece by piece on the bench-owned
// ledger and applier: one-event and 64-event appends (each fsynced),
// validation, overlay application, overlay reads, replay and compaction.
func (r *run) ingestProbes(fx *fixture, pt *probeTargets, reps int) {
	n := reps / 2
	var prep, app1, app64, apply []float64
	for i := 0; i < n; i++ {
		size := 1
		if i%2 == 1 {
			size = 64
		}
		evs := pt.pairs.freshEvents(size)
		t0 := time.Now()
		levs, perr := pt.app.Prepare(evs)
		prep = append(prep, float64(time.Since(t0))/float64(size))
		if perr != nil {
			r.failf("probe prepare: %v", perr)
			return
		}
		t0 = time.Now()
		_, err := pt.led.Append(levs)
		if size == 1 {
			app1 = append(app1, float64(time.Since(t0)))
		} else {
			app64 = append(app64, float64(time.Since(t0)))
		}
		if err == nil {
			t0 = time.Now()
			err = pt.app.Apply(levs)
			apply = append(apply, float64(time.Since(t0))/float64(size))
		}
		if err != nil {
			r.failf("probe append/apply: %v", err)
			return
		}
	}
	r.layer("ingest.prepare_us", us(time.Duration(median(prep))))
	r.layer("ingest.apply_us", us(time.Duration(median(apply))))
	r.layer("ledger.append_us", us(time.Duration(median(app1))))
	r.layer("ledger.append_batch64_us", us(time.Duration(median(app64))))

	bytes := float64(pt.led.Stats().ActiveBytes)
	t0 := time.Now()
	err := pt.led.Replay(func(ledger.Batch) error { return nil })
	if err != nil {
		r.failf("probe replay: %v", err)
	}
	r.layer("ledger.replay_mb_per_s", bytes/1e6/time.Since(t0).Seconds())

	// Overlay reads and writes on the delta the appends just built.
	ov := pt.app.Overlay()
	g := rng.New(r.seed).Split("bench-overlay")
	heads := make([]int, 1024)
	for i := range heads {
		heads[i] = fx.d.UserEnt[g.Intn(fx.d.NumUsers)]
	}
	r.layer("graph.overlay_neighbors_ns", float64(timeBlock(reps*100, func(i int) {
		ov.Neighbors(heads[i%len(heads)], func(_, tail int) { sink += tail })
	})))
	ents := ov.NumEntities()
	r.layer("graph.overlay_add_edge_ns", float64(timeBlock(reps*10, func(i int) {
		// A relation-0 edge between two arbitrary entities: a fresh
		// sorted insert nearly every time.
		ov.AddEdge(g.Intn(ents), 0, g.Intn(ents))
	})))
	t0 = time.Now()
	pt.app.Compact()
	r.layer("graph.compact_ms", ms(time.Since(t0)))
}

// trainLayerMetrics reports what Progress events say about training.
func (r *run) trainLayerMetrics(epochs []models.ProgressEvent) {
	if len(epochs) == 0 {
		return
	}
	var secs []float64
	for _, ev := range epochs {
		secs = append(secs, ev.Duration.Seconds())
	}
	r.layer("core.epoch1_s", secs[0])
	r.layer("core.epoch_p50_s", median(secs))
	r.layer("core.loss_final", epochs[len(epochs)-1].Loss)
}
