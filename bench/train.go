package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/models"
)

const (
	evalK          = 20   // recall@20, the paper's cutoff
	minRecall      = 0.20 // a CKAT that ranks worse than this after a few epochs is broken
	setupRepeats   = 5    // the training set-up is cheap, so it is timed this often
	secondsPerPass = 4.0  // one epoch of paper-config CKAT on OOI is about 2 s here
)

// trainPass is one fresh training run at a fixed worker count.
type trainPass struct {
	workers int
	model   *core.Model
	epochs  []models.ProgressEvent
	wall    time.Duration
	ph      phase // cpu and allocation over the pass
	metrics eval.Metrics
	evalDur time.Duration
}

func (tp *trainPass) samples() int {
	n := 0
	for _, ev := range tp.epochs {
		n += ev.Samples
	}
	return n
}

// steadyRate is the median samples/s of the epochs after the first,
// which pays for lazy initialisation (a one-epoch smoke pass has only
// the first).
func (tp *trainPass) steadyRate() float64 {
	steady := tp.epochs
	if len(steady) > 1 {
		steady = steady[1:]
	}
	var rates []float64
	for _, ev := range steady {
		rates = append(rates, ev.SamplesPerSec)
	}
	return median(rates)
}

// train fits a fresh paper-config CKAT and evaluates it by full
// ranking.
func (r *run) train(d *dataset.Dataset, workers, epochs int) (*trainPass, error) {
	opts, cfg := r.ckatConfig(models.DefaultTrainConfig().EmbedDim, epochs)
	epochs, cfg.Workers = cfg.Epochs, workers
	tp := &trainPass{workers: workers, model: core.New(opts)}
	root := r.tr.start(fmt.Sprintf("core.train.w%d", workers), -1, -1)
	epochSpan := r.tr.start("core.epoch", root, -1)
	cfg.Progress = func(ev models.ProgressEvent) {
		tp.epochs = append(tp.epochs, ev)
		r.tr.end(epochSpan)
		if ev.Epoch < ev.Epochs {
			epochSpan = r.tr.start("core.epoch", root, -1)
		}
	}
	m := startMeter()
	t0 := time.Now()
	err := tp.model.Train(context.Background(), d, cfg)
	tp.wall = time.Since(t0)
	m.stop(&tp.ph)
	r.tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("train workers=%d: %w", workers, err)
	}
	if len(tp.epochs) != epochs {
		return nil, fmt.Errorf("train workers=%d: %d progress events for %d epochs", workers, len(tp.epochs), epochs)
	}

	id := r.tr.start("eval.evaluate", -1, -1)
	t0 = time.Now()
	tp.metrics, err = eval.EvaluateCtx(context.Background(), d, tp.model, evalK, 2)
	tp.evalDur = time.Since(t0)
	r.tr.end(id)
	return tp, err
}

// runTrain is the train-ckat-ooi workload. Its op is one training
// sample; the unit a caller waits for is one epoch, so p50_ms is the
// median epoch of the Workers=2 pass.
func (r *run) runTrain() error {
	epochs := int(r.seconds / secondsPerPass)
	if epochs < 2 {
		epochs = 2
	}
	r.res.Stamp.ClosedS = r.seconds

	var d *dataset.Dataset
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if d, err = r.ooiDataset(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	for name := range r.stages {
		r.stages[name] /= setupRepeats
	}
	r.e2e("setup_s", median(setups))

	w1, err := r.train(d, 1, epochs)
	if err != nil {
		return err
	}
	w2, err := r.train(d, 2, epochs)
	if err != nil {
		return err
	}

	var epochMS []float64
	for _, ev := range w2.epochs {
		epochMS = append(epochMS, ms(ev.Duration))
	}
	r.res.Attempted = w1.samples() + w2.samples()
	r.e2e("goodput_qps", w2.steadyRate())
	r.e2e("p50_ms", median(epochMS))
	r.e2e("cpu_ms_per_op", ms(w2.ph.cpu)/float64(w2.samples()))
	r.e2e("alloc_kb_per_op", float64(w2.ph.allocB)/1024/float64(w2.samples()))
	r.e2e("heap_live_mb", liveHeapMB())
	r.res.Samples["goodput_qps"] = w2.samples()
	r.res.Samples["p50_ms"] = epochs

	fmt.Printf("train: workers=1 %.0f samples/s recall@20 %.4f | workers=2 %.0f samples/s recall@20 %.4f | eval %.0f users/s\n",
		w1.steadyRate(), w1.metrics.Recall, w2.steadyRate(), w2.metrics.Recall, float64(w2.metrics.Users)/w2.evalDur.Seconds())
	if !r.smoke {
		for _, tp := range []*trainPass{w1, w2} {
			if tp.metrics.Recall < minRecall {
				r.failf("recall@%d after %d epochs at workers=%d is %.4f, below %.2f", evalK, epochs, tp.workers, tp.metrics.Recall, minRecall)
			}
		}
	}
	if r.traced {
		return r.tracedTrain(d, w1, w2)
	}
	return nil
}

// tracedTrain reports the training workload's per-layer numbers: what
// the Progress events and the evaluation said, then the same probes the
// serving workloads run, on the trained model.
func (r *run) tracedTrain(d *dataset.Dataset, w1, w2 *trainPass) error {
	r.layer("train_samples_per_s", w2.steadyRate())
	r.layer("train_w1_samples_per_s", w1.steadyRate())
	r.layer("eval_users_per_s", float64(w2.metrics.Users)/w2.evalDur.Seconds())
	r.layer("recall_at_20", w1.metrics.Recall)
	r.layer("recall_at_20_w2", w2.metrics.Recall)
	r.layer("eval.evaluate_s", w2.evalDur.Seconds())
	r.trainLayerMetrics(w2.epochs)

	// Spans are recorded once per epoch, so tracing costs what the
	// bookkeeping costs: replay it on a scratch tracer and compare.
	scratch := newTracer()
	t0 := time.Now()
	for range r.tr.spans {
		scratch.end(scratch.start("x", -1, -1))
	}
	r.layer("harness.trace_overhead_frac", time.Since(t0).Seconds()/(w1.wall+w2.wall).Seconds())

	fx := &fixture{d: d, scorer: w2.model}
	pt, err := r.openProbeTargets(fx)
	if err != nil {
		return err
	}
	defer pt.led.Close()
	r.probes(fx, nil, pt)
	return nil
}
