package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"snapea/internal/atomicfile"
	"snapea/internal/cluster"
	"snapea/internal/metrics"
	"snapea/internal/serve"
)

// The program process: the serving stack as snapea-serve (and, for
// gateway-light, snapea-gateway) would run it, behind one listener that
// also speaks unencrypted HTTP/2 so a single client connection can carry
// many requests in flight. It prints "addr <host:port>" once listening,
// then obeys stdin commands: "cpu" (print "cpu <seconds>"), "trace on",
// "trace off", "exit". Spans are
// recorded only by the wrappers below, around the public handlers.

// tracer records one span per traced request at a handler boundary.
// Requests without a bench_id query tag (probes, sweep) are not traced.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (t *tracer) wrap(name, where string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req, err := strconv.ParseInt(r.URL.Query().Get("bench_id"), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now().UnixNano()
		h.ServeHTTP(w, r)
		end := time.Now().UnixNano()
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: name, Req: req, Start: start, End: end, Where: where})
		t.mu.Unlock()
	})
}

// listenLocal opens an ephemeral loopback listener and returns its base
// URL.
func listenLocal() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func runServeProgram(root string, w *workload, spansPath string, traced bool) error {
	// snapea-serve and snapea-gateway both enable metrics: the counters
	// are part of their contract.
	metrics.Enable()
	tr := &tracer{}
	wrap := func(name, where string, h http.Handler) http.Handler {
		if !traced {
			return h
		}
		return tr.wrap(name, where, h)
	}

	cfg := serve.Config{Models: w.Models}
	if len(w.Params) > 0 {
		cfg.ParamsFiles = make(map[string]string)
		for _, m := range w.Params {
			cfg.ParamsFiles[m] = fixturePath(root, m)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		servers  []*serve.Server
		replicas []*http.Server
		gw       *cluster.Gateway
		entry    http.Handler
		errc     = make(chan error, 4) // one slot per goroutine that may send
	)
	if w.Gateway {
		var urls []string
		for i := 0; i < 2; i++ {
			s := serve.New(cfg)
			if err := s.Preload(ctx); err != nil {
				return fmt.Errorf("preload replica %d: %w", i, err)
			}
			ln, url, err := listenLocal()
			if err != nil {
				return err
			}
			hs := &http.Server{Handler: wrap("serve", url, s)}
			go func() { errc <- hs.Serve(ln) }()
			servers, replicas, urls = append(servers, s), append(replicas, hs), append(urls, url)
		}
		g, err := cluster.New(cluster.Config{Replicas: urls})
		if err != nil {
			return err
		}
		gw, entry = g, wrap("cluster", "", g)
	} else {
		s := serve.New(cfg)
		servers = []*serve.Server{s}
		go func() {
			if err := s.Preload(ctx); err != nil {
				errc <- fmt.Errorf("preload: %w", err)
			}
		}()
		entry = s
	}

	ln, url, err := listenLocal()
	if err != nil {
		return err
	}
	if !w.Gateway {
		entry = wrap("serve", url, entry)
	}
	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	front := &http.Server{Handler: entry, Protocols: &protos}
	go func() { errc <- front.Serve(ln) }()
	fmt.Printf("addr %s\n", ln.Addr())

	cmds := make(chan string)
	go func() {
		defer close(cmds)
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			cmds <- sc.Text()
		}
	}()
loop:
	for {
		select {
		case err := <-errc:
			if !errors.Is(err, http.ErrServerClosed) {
				return err
			}
		case c, ok := <-cmds:
			switch {
			case !ok || c == "exit":
				break loop
			case c == "trace on":
				tr.on.Store(true)
			case c == "trace off":
				tr.on.Store(false)
			case c == "cpu":
				fmt.Printf("cpu %.6f\n", cpuSeconds())
			}
		}
	}

	// Graceful shutdown in snapea-serve's order: stop admission, drain
	// in-flight handlers, then close the batchers.
	if gw != nil {
		gw.BeginDrain()
	}
	for _, s := range servers {
		s.BeginDrain()
	}
	sctx, scancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer scancel()
	if err := front.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if gw != nil {
		gw.Close()
	}
	for _, hs := range replicas {
		if err := hs.Shutdown(sctx); err != nil {
			return fmt.Errorf("shutdown replica: %w", err)
		}
	}
	for _, s := range servers {
		s.Close()
	}
	if !traced {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return writeJSON(spansPath, tr.spans)
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(path, data, 0o644)
}

// peakRSSMB is this process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuSeconds is the CPU time (user plus system) this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
