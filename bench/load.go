package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/serve/client"
)

// numClients is C: the closed loop's client count and the open loop's
// connection pool. One process generates all load.
func numClients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// driver issues ops through the typed client over C keep-alive
// connections and checks every answer it gets.
type driver struct {
	c       *client.Client
	hc      *http.Client
	ctx     context.Context // carries the new-connection counter
	clients int
	conns   atomic.Int64 // connections the transport had to open

	d     *dataset.Dataset // nil for the null target
	pairs *pairGen         // nil unless the workload ingests

	errMu    sync.Mutex
	firstErr error
}

func newDriver(base string, d *dataset.Dataset, mode string) *driver {
	dr := &driver{clients: numClients(), d: d}
	dr.hc = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: dr.clients, MaxIdleConnsPerHost: dr.clients},
		Timeout:   30 * time.Second,
	}
	opts := []client.Option{client.WithHTTPClient(dr.hc)}
	if mode != "" {
		opts = append(opts, client.WithMode(mode))
	}
	dr.c = client.New(base, opts...)
	dr.ctx = httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		ConnectDone: func(_, _ string, err error) {
			if err == nil {
				dr.conns.Add(1)
			}
		},
	})
	return dr
}

func (dr *driver) close() { dr.hc.CloseIdleConnections() }

// fail keeps the first error for the report; every failure is counted
// by the phase that saw it.
func (dr *driver) fail(err error) {
	dr.errMu.Lock()
	if dr.firstErr == nil {
		dr.firstErr = err
	}
	dr.errMu.Unlock()
}

// issue sends one op and checks the answer. ackedEvents is the number
// of events the server acknowledged (ingest only).
func (dr *driver) issue(o op) (ackedEvents int, err error) {
	switch o.kind {
	case opRecommend:
		recs, err := dr.c.Recommend(dr.ctx, o.user, topK)
		if err != nil {
			return 0, err
		}
		return 0, checkRanked(dr.d, o.user, -1, recs)
	case opBatch:
		res, err := dr.c.RecommendBatch(dr.ctx, o.users, topK)
		if err != nil {
			return 0, err
		}
		if len(res) != len(o.users) {
			return 0, fmt.Errorf("batch: %d results for %d users", len(res), len(o.users))
		}
		for i, ur := range res {
			if ur.User != o.users[i] {
				return 0, fmt.Errorf("batch: result %d is user %d, want %d", i, ur.User, o.users[i])
			}
			if err := checkRanked(dr.d, ur.User, -1, ur.Recommendations); err != nil {
				return 0, err
			}
		}
		return 0, nil
	case opSimilar:
		recs, err := dr.c.Similar(dr.ctx, o.item, topK)
		if err != nil {
			return 0, err
		}
		return 0, checkRanked(dr.d, -1, o.item, recs)
	case opNearest:
		res, err := dr.c.Nearest(dr.ctx, client.Item(o.item), topK, "")
		if err != nil {
			return 0, err
		}
		return 0, checkNeighbors(res.Neighbors, o.item)
	case opAnalogy:
		res, err := dr.c.Analogy(dr.ctx, client.Item(o.a), client.Item(o.b), client.Item(o.c), topK, "")
		if err != nil {
			return 0, err
		}
		return 0, checkNeighbors(res.Neighbors, o.a, o.b, o.c)
	case opIngest:
		dr.pairs.mu.Lock()
		defer dr.pairs.mu.Unlock()
		evs := dr.pairs.freshEvents(ingestBatch)
		ack, err := dr.c.Ingest(dr.ctx, evs)
		if err != nil {
			return 0, err
		}
		if ack.Events != len(evs) {
			return 0, fmt.Errorf("ingest: acked %d of %d events", ack.Events, len(evs))
		}
		return ack.Events, nil
	}
	return 0, fmt.Errorf("unknown op kind %d", o.kind)
}

// sample is one completed op as the client saw it.
type sample struct {
	kind opKind
	done time.Duration // completion, since phase start
	lat  time.Duration // closed: send → answer; open: due → answer
	ok   bool
}

// phase is what one load phase measured.
type phase struct {
	dur       time.Duration
	samples   []sample
	attempted int
	failed    int
	acked     int // ingest events acknowledged
	cpu       time.Duration
	allocB    uint64
	late      []float64 // open phase: enqueue lateness per arrival, ms
}

func (p *phase) okCount() int { return p.attempted - p.failed }

// latencies returns the sorted latencies (ms) of the OK ops accepted
// by keep (nil keeps all).
func (p *phase) latencies(keep func(opKind) bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.ok && (keep == nil || keep(s.kind)) {
			out = append(out, ms(s.lat))
		}
	}
	sort.Float64s(out)
	return out
}

// windowRates splits the phase into n equal windows and returns each
// window's OK ops per second. Ops that complete after the last window
// closes are in attempted but in no window.
func (p *phase) windowRates(n int) []float64 {
	counts := make([]float64, n)
	w := p.dur / time.Duration(n)
	for _, s := range p.samples {
		if i := int(s.done / w); s.ok && i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return counts
}

// meter brackets a phase with the process-wide counters.
type meter struct {
	cpu time.Duration
	ms  runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuTime()
	return m
}

func (m *meter) stop(p *phase) {
	p.cpu = cpuTime() - m.cpu
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.allocB = after.TotalAlloc - m.ms.TotalAlloc
}

// closed runs the closed loop: every client calls do again as soon as
// its previous call returns, for dur. do reports the op's kind, the
// ingest events it had acknowledged, and its error.
func (dr *driver) closed(dur time.Duration, do func() (opKind, int, error)) *phase {
	p := &phase{dur: dur}
	per := make([]phase, dr.clients)
	var wg sync.WaitGroup
	m := startMeter()
	start := time.Now()
	for w := 0; w < dr.clients; w++ {
		wg.Add(1)
		go func(mine *phase) {
			defer wg.Done()
			for time.Since(start) < dur {
				t0 := time.Now()
				kind, acked, err := do()
				done := time.Now()
				mine.record(dr, sample{kind: kind, done: done.Sub(start), lat: done.Sub(t0), ok: err == nil}, acked, err)
			}
		}(&per[w])
	}
	wg.Wait()
	m.stop(p)
	p.merge(per)
	return p
}

// stream adapts an op source to closed's callback.
func (dr *driver) stream(nextOp func() op) func() (opKind, int, error) {
	return func() (opKind, int, error) {
		o := nextOp()
		acked, err := dr.issue(o)
		return o.kind, acked, err
	}
}

func (p *phase) record(dr *driver, s sample, acked int, err error) {
	p.samples = append(p.samples, s)
	p.attempted++
	p.acked += acked
	if err != nil {
		p.failed++
		dr.fail(fmt.Errorf("%s: %w", kindNames[s.kind], err))
	}
}

func (p *phase) merge(per []phase) {
	for i := range per {
		p.samples = append(p.samples, per[i].samples...)
		p.attempted += per[i].attempted
		p.failed += per[i].failed
		p.acked += per[i].acked
	}
}

// sleepUntil blocks the calling OS thread until t with nanosleep. The
// runtime's own timers fire up to a millisecond late in an idle
// process — ten times the latency under measurement — and a yielding
// spin starves the network poller, so the open loop's scheduler sleeps
// in the kernel on a thread of its own instead.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) just loops
	}
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK: how much the kernel may
// delay the calling thread's timers to batch wake-ups (50 µs by default).
const prSetTimerSlack = 29

// open runs the open loop: Poisson arrivals at rate for dur, drawn from
// seed. One scheduler goroutine hands each op to the same C clients at
// its due time; an op that finds every connection busy waits, and its
// latency runs from the due time regardless.
func (dr *driver) open(dur time.Duration, rate float64, seed int64, nextOp func() op) *phase {
	type job struct {
		o   op
		due time.Time
	}
	g := rng.New(seed).Split("bench-arrivals")
	var offsets []time.Duration
	for at := g.ExpFloat64() / rate; at < dur.Seconds(); at += g.ExpFloat64() / rate {
		offsets = append(offsets, time.Duration(at*float64(time.Second)))
	}
	ops := make([]op, len(offsets))
	for i := range ops {
		ops[i] = nextOp()
	}

	p := &phase{dur: dur, late: make([]float64, len(offsets))}
	per := make([]phase, dr.clients)
	// Sized to the number of sends: the scheduler must never block on a
	// slow server, or the arrivals would stop being open-loop.
	jobs := make(chan job, len(offsets))
	var wg sync.WaitGroup
	m := startMeter()
	start := time.Now()
	for w := 0; w < dr.clients; w++ {
		wg.Add(1)
		go func(mine *phase) {
			defer wg.Done()
			for j := range jobs {
				acked, err := dr.issue(j.o)
				done := time.Now()
				mine.record(dr, sample{kind: j.o.kind, done: done.Sub(start), lat: done.Sub(j.due), ok: err == nil}, acked, err)
			}
		}(&per[w])
	}
	sched := make(chan struct{})
	go func() {
		defer close(sched)
		// Never unlocked: the thread dies with this goroutine and takes
		// its changed timer slack with it.
		runtime.LockOSThread()
		syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort
		for i, off := range offsets {
			due := start.Add(off)
			sleepUntil(due)
			p.late[i] = ms(time.Since(due))
			jobs <- job{o: ops[i], due: due}
		}
		close(jobs)
	}()
	<-sched
	wg.Wait()
	m.stop(p)
	p.merge(per)
	return p
}

// nullHandler answers the health route with a fixed body: the least a
// server can do, so what the driver measures against it is itself.
func nullHandler() http.Handler {
	body := []byte(`{"degraded":false,"facility":"null","items":0,"shards":1,"status":"ok","users":0}` + "\n")
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
}

// calibrate drives the null handler with the same closed loop and
// returns its phase: the harness's own ceiling.
func calibrate(dur time.Duration) (*phase, error) {
	ts, err := listen(nullHandler())
	if err != nil {
		return nil, err
	}
	defer ts.Close()
	dr := newDriver(ts.url, nil, "")
	defer dr.close()
	p := dr.closed(dur, func() (opKind, int, error) {
		_, err := dr.c.Health(dr.ctx)
		return 0, 0, err
	})
	return p, dr.firstErr
}
