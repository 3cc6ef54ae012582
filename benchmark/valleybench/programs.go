package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"valleymap/internal/experiments"
	"valleymap/internal/service"
	"valleymap/internal/workload"
)

// programs is how a run reaches the system under test: the shipped
// binaries for end-to-end runs, the library in-process for traced runs
// and the smoke test.
type programs struct {
	// startDaemon starts valleyd over spillDir, logging to the file
	// logPath, and returns once /healthz answers.
	startDaemon func(spillDir, logPath string) (*daemon, error)
	// suitePass runs `experiments -exp suite -format json` once and
	// returns its standard output.
	suitePass func(scale string, seed int64) ([]byte, procStats, error)
}

// daemon is one running valleyd.
type daemon struct {
	url string
	// svc is the service itself when it runs in-process, nil otherwise.
	svc *service.Service
	// cpu reports the CPU time the daemon's process has used so far.
	cpu func() time.Duration
	// stop shuts the daemon down and waits for it to exit.
	stop func() (procStats, error)
}

// procStats is what a finished process cost.
type procStats struct {
	cpu      time.Duration
	maxRSSKB int64
}

func rusageStats(ru *syscall.Rusage) procStats {
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return procStats{cpu: tv(ru.Utime) + tv(ru.Stime), maxRSSKB: ru.Maxrss}
}

func selfStats() procStats {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procStats{}
	}
	return rusageStats(&ru)
}

// buildBinaries builds valleyd and experiments from the checkout at
// root into bin.
func buildBinaries(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/valleyd", "./cmd/experiments")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building valleyd and experiments in %s: %w", root, err)
	}
	return nil
}

func execPrograms(bin string) *programs {
	return &programs{
		startDaemon: func(spillDir, logPath string) (*daemon, error) {
			log, err := os.Create(logPath)
			if err != nil {
				return nil, err
			}
			// The daemon writes its own copy of the descriptor.
			defer log.Close()
			// The port is picked by binding :0 and releasing it, so
			// another process can take it first; retry then.
			for attempt := 0; attempt < 3; attempt++ {
				var d *daemon
				if d, err = execDaemon(filepath.Join(bin, "valleyd"), spillDir, log); err == nil {
					return d, nil
				}
			}
			return nil, err
		},
		suitePass: func(scale string, seed int64) ([]byte, procStats, error) {
			cmd := exec.Command(filepath.Join(bin, "experiments"),
				"-exp", "suite", "-scale", scale, "-seed", strconv.FormatInt(seed, 10), "-format", "json")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				return nil, procStats{}, fmt.Errorf("experiments: %w: %s", err, strings.TrimSpace(stderr.String()))
			}
			return out, rusageStats(cmd.ProcessState.SysUsage().(*syscall.Rusage)), nil
		},
	}
}

func execDaemon(path, spillDir string, log *os.File) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(path, "-addr", addr, "-spill-dir", spillDir)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting valleyd: %w", err)
	}
	exited := make(chan struct{})
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status is read from ProcessState
		close(exited)
	}()
	stop := func() (procStats, error) {
		cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may have exited already
		select {
		case <-exited:
		case <-time.After(60 * time.Second):
			cmd.Process.Kill() //nolint:errcheck // best effort after a hung shutdown
			<-exited
			return procStats{}, errors.New("valleyd did not shut down within 60s of SIGTERM")
		}
		st := rusageStats(cmd.ProcessState.SysUsage().(*syscall.Rusage))
		if !cmd.ProcessState.Success() {
			return st, fmt.Errorf("valleyd exited with %v", cmd.ProcessState)
		}
		return st, nil
	}
	d := &daemon{
		url:  "http://" + addr,
		cpu:  func() time.Duration { return procCPU(cmd.Process.Pid) },
		stop: stopOnce(stop),
	}
	if err := waitHealthy(d.url, exited); err != nil {
		stop() //nolint:errcheck // reporting the start failure instead
		return nil, err
	}
	return d, nil
}

// stopOnce makes stop idempotent: later calls return the first call's
// result, so a deferred stop on error paths is harmless.
func stopOnce(stop func() (procStats, error)) func() (procStats, error) {
	var (
		once sync.Once
		st   procStats
		err  error
	)
	return func() (procStats, error) {
		once.Do(func() { st, err = stop() })
		return st, err
	}
}

// procCPU reads a live process's user+system CPU time from /proc; the
// kernel reports it in USER_HZ ticks, which is 100 on Linux.
func procCPU(pid int) time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name start at field 3.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(utime+stime) * 10 * time.Millisecond
}

// waitHealthy polls /healthz until it answers 200, the daemon exits or
// 30 seconds pass.
func waitHealthy(url string, exited <-chan struct{}) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return errors.New("valleyd exited before answering /healthz")
		default:
		}
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("valleyd did not answer /healthz within 30s")
}

func inProcessPrograms() *programs {
	return &programs{
		startDaemon: inProcessDaemon,
		suitePass: func(scale string, seed int64) ([]byte, procStats, error) {
			sc, err := parseScale(scale)
			if err != nil {
				return nil, procStats{}, err
			}
			before := selfStats()
			env, err := experiments.JSONPayload("suite", experiments.Options{Scale: sc, Seed: seed})
			if err != nil {
				return nil, procStats{}, err
			}
			out, err := json.Marshal(env)
			after := selfStats()
			return out, procStats{cpu: after.cpu - before.cpu, maxRSSKB: after.maxRSSKB}, err
		},
	}
}

// inProcessDaemon serves a service.Service over a loopback listener in
// this process, so traced runs can read its spans and counters while
// clients still cross the real HTTP stack.
func inProcessDaemon(spillDir, logPath string) (*daemon, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{SpillDir: spillDir, Logger: slog.New(slog.NewTextHandler(log, nil))})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		log.Close()
		return nil, err
	}
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		srv.Serve(ln) //nolint:errcheck // always ErrServerClosed after Shutdown
		close(served)
	}()
	d := &daemon{
		url: "http://" + ln.Addr().String(),
		svc: svc,
		cpu: func() time.Duration { return selfStats().cpu },
		stop: stopOnce(func() (procStats, error) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			err := srv.Shutdown(ctx)
			<-served
			svc.Close()
			log.Close()
			return selfStats(), err
		}),
	}
	if err := waitHealthy(d.url, served); err != nil {
		d.stop() //nolint:errcheck // reporting the start failure instead
		return nil, err
	}
	return d, nil
}

func parseScale(s string) (workload.Scale, error) {
	switch s {
	case "tiny":
		return workload.Tiny, nil
	case "small":
		return workload.Small, nil
	case "full":
		return workload.Full, nil
	}
	return 0, fmt.Errorf("unknown scale %q", s)
}

// measureDaemon runs op(false) on clients callers for the window against
// d, then verify (which may be nil), stops d and sets the end-to-end
// metrics from the daemon's CPU time over the window and peak RSS.
func (r *run) measureDaemon(d *daemon, clients int, op func(traced bool) func(int), verify func() error) error {
	cpu0 := d.cpu()
	elapsed := loop(clients, r.window, op(false))
	cpu := d.cpu() - cpu0
	if verify != nil {
		if err := verify(); err != nil {
			return err
		}
	}
	st, err := d.stop()
	if err != nil {
		return err
	}
	return r.finishEndToEnd(elapsed, cpu, st.maxRSSKB)
}

// startDaemons runs the workload's set-up r.setups times — start a
// daemon over a fresh spill directory, wait until it is healthy, then
// load (which may be nil) — and samples each set-up's duration as
// setup_s. Every daemon but the last is stopped; the last is returned.
func (r *run) startDaemons(load func(*daemon) error) (*daemon, error) {
	var d *daemon
	for i := 0; i < r.setups; i++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		d, err = r.progs.startDaemon(filepath.Join(r.dir, fmt.Sprintf("spill-%d", i)), filepath.Join(r.dir, fmt.Sprintf("valleyd-%d.log", i)))
		if err != nil {
			return nil, err
		}
		if load != nil {
			if err := load(d); err != nil {
				d.stop() //nolint:errcheck // reporting the load failure instead
				return nil, err
			}
		}
		r.sample("setup_s", time.Since(start).Seconds())
	}
	return d, nil
}
