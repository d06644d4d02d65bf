package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one dmsd child process. The benchmark reads everything it
// reports about the server from outside the process: the listen address
// and GODEBUG=gctrace=1 lines from its stderr, memory and CPU from /proc.
type daemon struct {
	cmd  *exec.Cmd
	addr string

	mu     sync.Mutex
	gcs    []gcEvent
	tail   []string // last stderr lines, for error reports
	exited chan struct{}
}

// gcEvent is one parsed gctrace line, stamped with its arrival time.
type gcEvent struct {
	at      time.Time
	pauseMS float64 // sweep termination + mark termination, wall clock
	heapMB  float64 // heap size when the cycle started
}

// gctraceRE matches "gc N @Ts P%: A+B+C ms clock, ..., X->Y->Z MB, ...".
var gctraceRE = regexp.MustCompile(`^gc \d+ @[0-9.]+s \d+%: ([0-9.]+)\+[0-9.]+\+([0-9.]+) ms clock, .*? ([0-9.]+)->[0-9.]+->[0-9.]+ MB`)

// parseGCLine parses one gctrace line; ok is false for any other line.
func parseGCLine(line string) (ev gcEvent, ok bool) {
	m := gctraceRE.FindStringSubmatch(line)
	if m == nil {
		return gcEvent{}, false
	}
	stw1, _ := strconv.ParseFloat(m[1], 64)
	stw2, _ := strconv.ParseFloat(m[2], 64)
	heap, _ := strconv.ParseFloat(m[3], 64)
	return gcEvent{pauseMS: stw1 + stw2, heapMB: heap}, true
}

// startDaemon launches bin with its default flags plus extra, on a free
// loopback port, and waits until it reports its listen address.
func startDaemon(bin string, extra []string, gctrace bool) (*daemon, error) {
	flags := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, flags...)
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	// The child must not outlive the benchmark, even when the benchmark
	// itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	// An io.Pipe rather than StderrPipe: Wait then also waits until the
	// last stderr line has been handed to readStderr.
	pr, pw := io.Pipe()
	cmd.Stderr = pw
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addrCh := make(chan string, 1)
	go d.readStderr(pr, addrCh)
	go func() {
		cmd.Wait()
		pw.Close()
		close(d.exited)
	}()
	select {
	case d.addr = <-addrCh:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("dmsd exited before serving: %s", d.stderrTail())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("dmsd did not report a listen address within 30s: %s", d.stderrTail())
	}
}

// readStderr drains the child's stderr: the first "msg=serving" line
// yields the bound address, gctrace lines are parsed, the rest is kept as
// a short tail for error messages.
func (d *daemon) readStderr(r io.Reader, addrCh chan<- string) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := parseGCLine(line); ok {
			ev.at = time.Now()
			d.mu.Lock()
			d.gcs = append(d.gcs, ev)
			d.mu.Unlock()
			continue
		}
		if !sent && strings.Contains(line, "msg=serving") {
			for _, f := range strings.Fields(line) {
				if a, ok := strings.CutPrefix(f, "addr="); ok {
					addrCh <- a
					sent = true
				}
			}
		}
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
	}
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// gcBetween returns the GC cycles that ended in [from, to].
func (d *daemon) gcBetween(from, to time.Time) []gcEvent {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []gcEvent
	for _, ev := range d.gcs {
		if !ev.at.Before(from) && !ev.at.After(to) {
			out = append(out, ev)
		}
	}
	return out
}

// procSample is what /proc says about the child at one instant.
type procSample struct {
	cpuTicks int64   // utime + stime, in clock ticks
	hwmMB    float64 // VmHWM: peak resident set size
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux ABI Go supports.
const clockTicks = 100

func (d *daemon) proc() (procSample, error) {
	pid := d.cmd.Process.Pid
	var ps procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// The command name may hold spaces; fields after it start at ')'.
	s := string(stat)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseInt(fields[11], 10, 64)
	stime, _ := strconv.ParseInt(fields[12], 10, 64)
	ps.cpuTicks = utime + stime
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			ps.hwmMB = kb / 1024
		}
	}
	return ps, nil
}

// stop kills the child and waits for it to exit. The benchmark has read
// everything it needs by then, so there is nothing to shut down cleanly.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	<-d.exited
}
