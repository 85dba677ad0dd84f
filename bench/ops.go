package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/serve/api"
	"repro/internal/trace"
)

type opKind int

const (
	opRecommend opKind = iota
	opBatch
	opSimilar
	opNearest
	opAnalogy
	opIngest
	numKinds
)

var kindNames = [numKinds]string{"recommend", "batch", "similar", "nearest", "analogy", "ingest"}

const (
	topK        = 10 // k on every ranking request
	batchUsers  = 8  // users per recommend:batch call
	ingestBatch = 8  // events per ingest call
	// newUserShare of ingested events come from a user the server has
	// never seen, so dense entity growth is on the measured path.
	newUserShare = 0.10
)

// op is one request of the stream. Ingest ops carry no events: those
// are drawn at send time (freshEvents), because an ingested pair must
// never be offered twice, on any pass over the stream.
type op struct {
	kind    opKind
	user    int
	item    int
	users   []int
	a, b, c int
}

// opGen is the bench-owned, seeded op stream. Entities follow a seeded
// shuffle of the trace's records, so the popularity skew of §III-B is
// kept while the order — and with it the score cache's hit ratio — is
// the population's, not the generator's org-by-org record order.
type opGen struct {
	mu    sync.Mutex
	g     *rng.RNG
	mix   [numKinds]int
	total int
	recs  []trace.Record
	ri    int
	warm  []int // items /v1/similar can answer for
	isW   []bool
	users int
}

func newOpGen(d *dataset.Dataset, mix [numKinds]int, seed int64) *opGen {
	g := rng.New(seed).Split("bench-ops")
	recs := make([]trace.Record, len(d.Trace.Records))
	for i, j := range g.Perm(len(recs)) {
		recs[i] = d.Trace.Records[j]
	}
	og := &opGen{g: g, mix: mix, recs: recs, isW: make([]bool, d.NumItems), users: d.NumUsers}
	for _, w := range mix {
		og.total += w
	}
	for _, p := range d.Train {
		if !og.isW[p[1]] {
			og.isW[p[1]] = true
			og.warm = append(og.warm, p[1])
		}
	}
	sort.Ints(og.warm)
	return og
}

func (og *opGen) rec() trace.Record {
	r := og.recs[og.ri%len(og.recs)]
	og.ri++
	return r
}

// next returns the stream's next op. Safe for the closed phase's
// concurrent clients: the stream order is the pull order.
func (og *opGen) next() op {
	og.mu.Lock()
	defer og.mu.Unlock()
	draw := og.g.Intn(og.total)
	kind := opKind(0)
	for draw >= og.mix[kind] {
		draw -= og.mix[kind]
		kind++
	}
	r := og.rec()
	o := op{kind: kind, user: r.User, item: r.Item}
	switch kind {
	case opSimilar:
		// /v1/similar 404s on an item nobody trained on.
		if !og.isW[o.item] {
			o.item = og.warm[og.g.Intn(len(og.warm))]
		}
	case opBatch:
		seen := map[int]bool{r.User: true}
		o.users = append(make([]int, 0, batchUsers), r.User)
		for len(o.users) < batchUsers && len(seen) < og.users {
			if u := og.rec().User; !seen[u] {
				seen[u] = true
				o.users = append(o.users, u)
			}
		}
		sort.Ints(o.users)
	case opAnalogy:
		o.a, o.b, o.c = r.Item, og.rec().Item, og.rec().Item
	}
	return o
}

// pairGen yields (user, item) pairs the dataset has never seen, each at
// most once: a full-period walk over the users × items grid that skips
// the trace's own interactions. A repeated pair is an idempotent no-op
// in the overlay, so repeats would make ingest cheaper lap by lap.
type pairGen struct {
	mu        sync.Mutex
	g         *rng.RNG
	users     int
	items     int
	pos, step int
	seen      map[[2]int]struct{}
	nextUser  int // first index the server has not seen
	dataTypes int
}

func newPairGen(d *dataset.Dataset, seed int64) *pairGen {
	g := rng.New(seed).Split("bench-pairs")
	n := d.NumUsers * d.NumItems
	step := 1 + g.Intn(n-1)
	for gcd(step, n) != 1 {
		step++
	}
	seen := make(map[[2]int]struct{}, len(d.Train)+len(d.Test))
	for _, p := range d.Train {
		seen[p] = struct{}{}
	}
	for _, p := range d.Test {
		seen[p] = struct{}{}
	}
	return &pairGen{
		g: g, users: d.NumUsers, items: d.NumItems, pos: g.Intn(n), step: step,
		seen: seen, nextUser: d.NumUsers, dataTypes: len(d.Trace.Facility.DataTypes),
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// freshEvents draws one ingest call's events. The caller holds pg.mu
// from the draw until the server has answered: a first-appearance user
// must take the next dense index, which only stays true if no other
// ingest lands in between. The server serializes ingests under its own
// lock anyway, so this costs the closed loop no concurrency.
func (pg *pairGen) freshEvents(n int) []api.IngestEvent {
	evs := make([]api.IngestEvent, n)
	for i := range evs {
		if pg.g.Float64() < newUserShare {
			evs[i] = api.IngestEvent{User: pg.nextUser, Item: pg.g.Intn(pg.items)}
			pg.nextUser++
		} else {
			var p [2]int
			for {
				p = [2]int{pg.pos / pg.items, pg.pos % pg.items}
				pg.pos = (pg.pos + pg.step) % (pg.users * pg.items)
				if _, dup := pg.seen[p]; !dup {
					break
				}
			}
			evs[i] = api.IngestEvent{User: p[0], Item: p[1]}
		}
		evs[i].DataType = pg.g.Intn(pg.dataTypes)
	}
	return evs
}

// httpRequest encodes o exactly as the typed client does (sorted query
// parameters, the same JSON bodies), for the places that need the raw
// bytes: the routed-vs-direct comparison and the in-process ServeHTTP
// calls of the traced run. evs is the body of an ingest op.
func (o op) httpRequest(base, mode string, evs []api.IngestEvent) (*http.Request, error) {
	q := url.Values{}
	if o.kind != opBatch && o.kind != opIngest {
		q.Set("k", strconv.Itoa(topK))
		if mode != "" {
			q.Set("mode", mode)
		}
	}
	item := func(id int) string { return api.EntityRef{Kind: api.KindItem, ID: id}.String() }
	var path string
	var body []byte
	var err error
	switch o.kind {
	case opRecommend:
		path = "/v1/recommend"
		q.Set("user", strconv.Itoa(o.user))
	case opSimilar:
		path = "/v1/similar"
		q.Set("item", strconv.Itoa(o.item))
	case opNearest:
		path = "/v1/query:nearest"
		q.Set("entity", item(o.item))
	case opAnalogy:
		path = "/v1/query:analogy"
		q.Set("a", item(o.a))
		q.Set("b", item(o.b))
		q.Set("c", item(o.c))
	case opBatch:
		path = "/v1/recommend:batch"
		body, err = json.Marshal(api.BatchRequest{Users: o.users, K: topK, Mode: mode})
	case opIngest:
		path = "/v1/ingest"
		body, err = json.Marshal(api.IngestRequest{Events: evs})
	}
	if err != nil {
		return nil, err
	}
	u := base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	if body == nil {
		return http.NewRequest(http.MethodGet, u, nil)
	}
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, err
}
