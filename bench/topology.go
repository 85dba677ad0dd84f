package main

import (
	"fmt"
	"net"
	"net/http"
	"path/filepath"

	"repro/internal/ingest"
	"repro/internal/ledger"
	"repro/internal/router"
	"repro/internal/serve"
)

// listener is one loopback http.Server.
type listener struct {
	url string
	srv *http.Server
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) // returns when Close closes ln
	return &listener{url: "http://" + ln.Addr().String(), srv: srv}, nil
}

func (l *listener) Close() { l.srv.Close() }

// topology is the serving shape a workload drives: one server, or a
// router over two, optionally with a live ledger.
type topology struct {
	url      string          // what the client talks to
	backends []*serve.Server // one, or the router's two
	router   *router.Router  // nil when direct
	led      *ledger.Ledger  // nil unless the workload ingests
	app      *ingest.Applier
	ledDir   string

	listeners []*listener
}

func (tp *topology) close() {
	for _, l := range tp.listeners {
		l.Close()
	}
	if tp.led != nil {
		tp.led.Close()
	}
}

// boot starts the workload's topology over fx on loopback listeners.
func (r *run) boot(fx *fixture) (*topology, error) {
	sp := r.spec
	tp := &topology{}
	var opts []serve.Option
	if sp.cacheSize > 0 {
		opts = append(opts, serve.WithCacheSize(sp.cacheSize))
	}
	if sp.noANN {
		opts = append(opts, serve.WithoutANN())
	}
	if sp.ingest {
		tp.ledDir = filepath.Join(r.scratch, "ledger")
		tp.app = ingest.New(fx.d, fx.d.CSR())
		led, _, err := ledger.Open(tp.ledDir, ledger.Options{OnBatch: tp.app.OnBatch})
		if err != nil {
			return nil, fmt.Errorf("open ledger: %w", err)
		}
		tp.led = led
		opts = append(opts, serve.WithIngest(led, tp.app))
	}
	n := 1
	if sp.routed {
		n = 2
	}
	urls := make([]string, n)
	for i := range urls {
		s := serve.New(fx.d, fx.scorer, append(opts, serve.WithShards(1))...)
		l, err := listen(s)
		if err != nil {
			tp.close()
			return nil, err
		}
		tp.backends = append(tp.backends, s)
		tp.listeners = append(tp.listeners, l)
		urls[i] = l.url
	}
	tp.url = urls[0]
	if sp.routed {
		rt, err := router.New(router.Config{Backends: urls})
		if err != nil {
			tp.close()
			return nil, err
		}
		l, err := listen(rt)
		if err != nil {
			tp.close()
			return nil, err
		}
		tp.router = rt
		tp.listeners = append(tp.listeners, l)
		tp.url = l.url
	}
	return tp, nil
}
