package main

import (
	"bytes"
	"context"
	_ "embed"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/facility"
	"repro/internal/models"
	"repro/internal/rng"
	"repro/internal/trace"
)

// bigfacJSON is the bench-owned StationRule schema behind the large-*
// workloads: 40,000 items and 2,000 users, so a catalog-wide score
// vector (320 KB) dwarfs every per-request fixed cost.
//
//go:embed bigfac.json
var bigfacJSON []byte

// fixture is the generated input of one workload. Everything in it is
// a function of the seed; the program under test sees nothing else.
type fixture struct {
	d      *dataset.Dataset
	scorer eval.Scorer
}

// stage times one set-up call into the run's stage table and, on a
// traced run, records it as a span.
func (r *run) stage(name string, fn func()) {
	id := r.tr.start(name, -1, -1)
	t0 := time.Now()
	fn()
	r.stages[name] += time.Since(t0)
	r.tr.end(id)
}

// buildDataset instantiates the schema's catalog, generates its query
// trace and assembles the CKG, each step timed as its own layer.
func (r *run) buildDataset(s *facility.Schema) (*dataset.Dataset, error) {
	var cat *facility.Catalog
	var err error
	r.stage("facility.instantiate", func() { cat, err = s.Instantiate(r.seed) })
	if err != nil {
		return nil, fmt.Errorf("instantiate %s: %w", s.Name, err)
	}
	var tr *trace.Trace
	r.stage("trace.generate", func() { tr = trace.Generate(cat, trace.ConfigFrom(s.Affinity), r.seed) })
	var d *dataset.Dataset
	r.stage("dataset.build", func() { d = dataset.Build(tr, dataset.AllSources(), r.seed) })
	r.stage("graph.freeze", func() { d.CSR() })
	return d, nil
}

// ooiDataset is the built-in OOI schema with its default affinity
// calibration: the paper's facility.
func (r *run) ooiDataset() (*dataset.Dataset, error) {
	return r.buildDataset(facility.BuiltinOOI())
}

// bigSchema loads bigfac.json; the smoke variant shrinks it to 2,000
// items so the self-test stays inside tier-1's time.
func bigSchema(smoke bool) (*facility.Schema, error) {
	s, err := facility.LoadSchema(bytes.NewReader(bigfacJSON))
	if err != nil {
		return nil, fmt.Errorf("load bigfac.json: %w", err)
	}
	if smoke {
		s.Synthesis.Stations.Stations = 2000
		s.Synthesis.Stations.Cities = 100
		s.Affinity.NumUsers = 300
		s.Affinity.NumOrgs = 20
	}
	return s, nil
}

// smallFixture trains the compact CKAT every small-* workload serves:
// dim 16, 2 epochs. Scoring 7xx items costs microseconds, which is the
// point: what the client waits for is everything else.
func (r *run) smallFixture() (*fixture, error) {
	d, err := r.ooiDataset()
	if err != nil {
		return nil, err
	}
	opts, cfg := r.ckatConfig(16, 2)
	m := core.New(opts)
	cfg.Progress = func(ev models.ProgressEvent) { r.trainEvents = append(r.trainEvents, ev) }
	var terr error
	r.stage("core.train", func() { terr = m.Train(context.Background(), d, cfg) })
	if terr != nil {
		return nil, fmt.Errorf("train small CKAT: %w", terr)
	}
	return &fixture{d: d, scorer: m}, nil
}

// ckatConfig is the paper's CKAT configuration at the given embedding
// size. The smoke variant shrinks the model and trains one epoch: the
// same code path in a fraction of the time.
func (r *run) ckatConfig(dim, epochs int) (core.Options, models.TrainConfig) {
	opts, cfg := core.DefaultOptions(), models.DefaultTrainConfig()
	cfg.EmbedDim, cfg.Epochs, cfg.Seed = dim, epochs, r.seed
	if r.smoke {
		opts.Layers = []int{8}
		cfg.EmbedDim, cfg.Epochs = 8, 1
	}
	return opts, cfg
}

// largeFixture pairs the 40,000-item catalog with untrained
// seeded-Gaussian embeddings: serving cost depends on the vectors'
// shape, not their quality, and training a model this size would cost
// more than the run.
func (r *run) largeFixture() (*fixture, error) {
	s, err := bigSchema(r.smoke)
	if err != nil {
		return nil, err
	}
	d, err := r.buildDataset(s)
	if err != nil {
		return nil, err
	}
	return &fixture{d: d, scorer: newGaussScorer(r.seed, d.NumUsers, d.NumItems, 32)}, nil
}

// gaussScorer is an eval.VectorScorer over N(0,1) embedding rows.
type gaussScorer struct {
	dim          int
	users, items []float64
}

func newGaussScorer(seed int64, users, items, dim int) *gaussScorer {
	g := rng.New(seed).Split("bench-gauss")
	s := &gaussScorer{dim: dim, users: make([]float64, users*dim), items: make([]float64, items*dim)}
	for i := range s.users {
		s.users[i] = g.NormFloat64()
	}
	for i := range s.items {
		s.items[i] = g.NormFloat64()
	}
	return s
}

func (s *gaussScorer) NumUsers() int              { return len(s.users) / s.dim }
func (s *gaussScorer) NumItems() int              { return len(s.items) / s.dim }
func (s *gaussScorer) Dim() int                   { return s.dim }
func (s *gaussScorer) UserVector(u int) []float64 { return s.users[u*s.dim : (u+1)*s.dim] }
func (s *gaussScorer) ItemVector(i int) []float64 { return s.items[i*s.dim : (i+1)*s.dim] }

func (s *gaussScorer) ScoreItems(user int, out []float64) {
	uv := s.UserVector(user)
	for i := range out {
		iv := s.items[i*s.dim : (i+1)*s.dim]
		var dot float64
		for j, x := range uv {
			dot += x * iv[j]
		}
		out[i] = dot
	}
}
