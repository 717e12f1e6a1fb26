package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"stash/internal/api"
)

// The server workloads run stashd in a process of its own, as it runs
// in production, so the load generator is scheduled by the OS beside
// it rather than queued behind the server's goroutines. The benchmark
// reaches the server only over loopback: the stashd API, plus a few
// /bench/ control endpoints the benchmark's own handler answers
// (profiling, allocation counter, phase label) before api.Handler sees
// a request.

// runServeChild is the server process: a default stashd (the
// configuration cmd/stashd runs without flags) on 127.0.0.1. It prints
// its address, serves until its standard input closes, then drains the
// job subsystem and shuts down.
func runServeChild(w string, traced bool) int {
	if traced {
		// Goroutines inherit labels when created, so the job workers
		// and the listener carry the workload, in phase "background".
		pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("workload", w, "phase", "background")))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		return 1
	}
	srv := api.New()
	var phase atomic.Value
	phase.Store("setup")
	h := srv.Handler()
	var tr *tracer
	if traced {
		tr = &tracer{workload: w, origin: time.Now(), dir: spanDir + "/profiles"}
		inner := h
		h = http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			labels := pprof.Labels("workload", w, "phase", phase.Load().(string))
			pprof.Do(req.Context(), labels, func(ctx context.Context) { inner.ServeHTTP(rw, req.WithContext(ctx)) })
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /bench/phase", func(rw http.ResponseWriter, req *http.Request) {
		phase.Store(req.URL.Query().Get("name"))
	})
	mux.HandleFunc("GET /bench/alloc", func(rw http.ResponseWriter, req *http.Request) {
		fmt.Fprint(rw, totalAlloc())
	})
	mux.HandleFunc("POST /bench/trace/start", func(rw http.ResponseWriter, req *http.Request) {
		if err := tr.start(); err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("POST /bench/trace/stop", func(rw http.ResponseWriter, req *http.Request) {
		layers, phases, err := tr.stop(req.URL.Query().Get("name"))
		if err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		_ = json.NewEncoder(rw).Encode(traceReport{layers, phases}) // a failed write fails the caller's decode
	})
	mux.Handle("/", h)
	hs := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Println(ln.Addr())

	_, _ = io.Copy(io.Discard, os.Stdin) // returns when the round process closes stdin
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv.Drain(ctx)
	err = hs.Shutdown(ctx)
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		return 1
	}
	return 0
}

// traceReport is a traced server's per-layer metrics.
type traceReport struct {
	Layers map[string]float64 `json:"layers"`
	Phases map[string]float64 `json:"phases"`
}

// server is a stashd process and the round's client for it.
type server struct {
	client
	traced bool
	cmd    *exec.Cmd
	stdin  io.WriteCloser
}

// startServer starts a stashd process for the round; the client holds
// at most conns connections.
func startServer(r *round, conns int) (*server, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-serve", r.workload}
	if r.tr != nil {
		args = append(args, "-traced")
	}
	cmd := exec.Command(self, args...)
	cmd.SysProcAttr = diesWithParent()
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addr, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		stdin.Close()
		_ = cmd.Wait() // the read error is the one to report
		return nil, fmt.Errorf("server process: %w", err)
	}
	return &server{
		client: newClient("http://"+strings.TrimSpace(addr), conns),
		traced: r.tr != nil,
		cmd:    cmd,
		stdin:  stdin,
	}, nil
}

// close stops the server process and waits for it to exit.
func (s *server) close() error {
	s.hc.CloseIdleConnections()
	s.stdin.Close()
	return s.cmd.Wait()
}

// closeServer stops the round's server; a server that fails to shut
// down cleanly fails the round.
func (r *round) closeServer(s *server) {
	if err := s.close(); err != nil {
		r.res.Errors = append(r.res.Errors, fmt.Sprintf("server process: %v", err))
	}
}

// control calls one of the server process's /bench/ endpoints.
func (s *server) control(method, path string) ([]byte, error) {
	code, body, err := s.do(method, path, "", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %d %s", method, path, code, body)
	}
	return body, nil
}

// setPhase labels the server's CPU samples from now on (traced only).
func (s *server) setPhase(name string) error {
	if !s.traced {
		return nil
	}
	_, err := s.control(http.MethodPost, "/bench/phase?name="+name)
	return err
}

// alloc reads the server process's cumulative allocated bytes.
func (s *server) alloc() (uint64, error) {
	body, err := s.control(http.MethodGet, "/bench/alloc")
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(string(body), 10, 64)
}

// startTrace starts the server's profiles (traced only) and notes the
// load process's CPU time.
func (s *server) startTrace(r *round) error {
	if !s.traced {
		return nil
	}
	r.clientCPU = cpuTime()
	_, err := s.control(http.MethodPost, "/bench/trace/start")
	return err
}

// stopTrace ends the server's profiles and stores the round's layer
// metrics: the server's, plus the load process's CPU time.
func (s *server) stopTrace(r *round) error {
	if !s.traced {
		return nil
	}
	client := cpuTime() - r.clientCPU
	body, err := s.control(http.MethodPost, "/bench/trace/stop?name="+r.profileName())
	if err != nil {
		return err
	}
	var rep traceReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("trace report: %w", err)
	}
	r.res.Layers, r.res.Phases = rep.Layers, rep.Phases
	r.res.Spans = r.tr.spans
	r.layer("bench.client_cpu_s", client)
	return nil
}

// cpuTime is this process's user plus system CPU time in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
