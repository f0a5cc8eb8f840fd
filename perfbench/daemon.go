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
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// daemon is one running hypermisd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	debug  string // pprof base URL, empty unless -debug-addr was given
	start  time.Time
	exited chan struct{}
	log    *os.File
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon execs bin on a free loopback port with the given extra
// flags, logging to logPath. withDebug adds a -debug-addr listener.
func startDaemon(bin, logPath string, withDebug bool, extra ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr}, extra...)
	d := &daemon{base: "http://" + addr, exited: make(chan struct{})}
	if withDebug {
		dbg, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args = append(args, "-debug-addr", dbg)
		d.debug = "http://" + dbg
	}
	if d.log, err = os.Create(logPath); err != nil {
		return nil, err
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	// The daemon must not outlive the benchmark, however it ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.start = time.Now()
	if err := d.cmd.Start(); err != nil {
		d.log.Close()
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is read from ProcessState in stop
		close(d.exited)
	}()
	return d, nil
}

// stop drains the daemon with SIGTERM, kills it if the drain takes
// longer than 30s, and waits for it to exit.
func (d *daemon) stop() error {
	defer d.log.Close()
	select {
	case <-d.exited:
		return fmt.Errorf("hypermisd exited early: %v", d.cmd.ProcessState)
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // it may exit between the check and the signal
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("hypermisd did not drain within 30s")
	}
	if !d.cmd.ProcessState.Success() {
		return fmt.Errorf("hypermisd: %v", d.cmd.ProcessState)
	}
	return nil
}

// cpu is the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB is the daemon's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func getBody(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, err
}

// stats reads the daemon's public /v1/stats snapshot.
func (d *daemon) stats(ctx context.Context, c *http.Client) (service.Stats, error) {
	var st service.Stats
	b, err := getBody(ctx, c, d.base+"/v1/stats")
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

// memStats is the part of runtime.MemStats the heap profile prints
// that the per-layer metrics use.
type memStats struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    [256]uint64
}

// memStats reads runtime.MemStats from the daemon's pprof listener
// (the "# Name = value" trailer of /debug/pprof/heap?debug=1).
func (d *daemon) memStats(ctx context.Context, c *http.Client) (memStats, error) {
	var m memStats
	if d.debug == "" {
		return m, errors.New("daemon started without -debug-addr")
	}
	b, err := getBody(ctx, c, d.debug+"/debug/pprof/heap?debug=1")
	if err != nil {
		return m, err
	}
	seen := 0
	for _, line := range strings.Split(string(b), "\n") {
		name, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		switch name {
		case "TotalAlloc":
			m.totalAlloc, err = strconv.ParseUint(val, 10, 64)
			seen++
		case "NumGC":
			var n uint64
			n, err = strconv.ParseUint(val, 10, 32)
			m.numGC = uint32(n)
			seen++
		case "PauseNs":
			for i, f := range strings.Fields(strings.Trim(val, "[]")) {
				if i < len(m.pauseNs) {
					m.pauseNs[i], err = strconv.ParseUint(f, 10, 64)
				}
			}
			seen++
		}
		if err != nil {
			return m, fmt.Errorf("heap profile %s: %w", name, err)
		}
	}
	if seen != 3 {
		return m, errors.New("heap profile lacks the runtime.MemStats trailer")
	}
	return m, nil
}

// gcPause sums the stop-the-world pauses of the collections between
// before and after. PauseNs is a 256-entry ring; when more collections
// than that ran, the ring's mean stands in for the pauses it lost.
func gcPause(before, after memStats) time.Duration {
	n := after.numGC - before.numGC
	var sum uint64
	for k := uint32(0); k < min(n, 256); k++ {
		sum += after.pauseNs[(after.numGC-k+255)%256]
	}
	if n > 256 {
		sum = sum * uint64(n) / 256
	}
	return time.Duration(sum)
}
