package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one started memctld or memrouterd process.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	logFile string // the process's stderr
	ctlFile string
	binFile string
	ctl     string // HTTP control address, once ready
	bin     string // binary data-plane address, once ready
	exited  chan struct{}
	waitErr error
}

// startDaemon execs binDir/prog with args plus the address-file flags
// that report its listeners through files in runDir.
func startDaemon(binDir, runDir, name, prog string, args []string) (*daemon, error) {
	d := &daemon{
		name:    name,
		logFile: filepath.Join(runDir, name+".log"),
		ctlFile: filepath.Join(runDir, name+".ctl"),
		binFile: filepath.Join(runDir, name+".bin"),
		exited:  make(chan struct{}),
	}
	os.Remove(d.ctlFile)
	os.Remove(d.binFile)
	args = append([]string{
		"-addr", "127.0.0.1:0", "-addr-file", d.ctlFile,
		"-binary-addr", "127.0.0.1:0", "-binary-addr-file", d.binFile,
	}, args...)
	log, err := os.Create(d.logFile)
	if err != nil {
		return nil, err
	}
	defer log.Close() // the child holds its own descriptor
	d.cmd = exec.Command(filepath.Join(binDir, prog), args...)
	d.cmd.Stderr = log
	d.cmd.SysProcAttr = orphanKill
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// orphanKill makes the kernel kill a started process if the driver dies
// without stopping it.
var orphanKill = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

// waitReady blocks until both listeners are bound and GET /healthz
// answers 200.
func (d *daemon) waitReady(deadline time.Time) error {
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited before becoming ready: %v\n%s", d.name, d.waitErr, d.log())
		default:
		}
		if now().After(deadline) {
			return fmt.Errorf("%s not ready in time\n%s", d.name, d.log())
		}
		if d.ctl == "" {
			d.ctl = readAddr(d.ctlFile)
		}
		if d.bin == "" {
			d.bin = readAddr(d.binFile)
		}
		if d.ctl != "" && d.bin != "" {
			if resp, err := httpClient.Get("http://" + d.ctl + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(readyPoll)
	}
}

// readyPoll is the readiness poll period; start-up takes about 10 ms,
// so a coarser poll would show up in setup_s.
const readyPoll = 250 * time.Microsecond

// log returns what the process has written to stderr so far.
func (d *daemon) log() string {
	b, _ := os.ReadFile(d.logFile) // diagnostics only; a missing log reads as empty
	return string(b)
}

// readAddr returns the address a daemon wrote to path, or "" while the
// file is absent or not yet complete.
func readAddr(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	s := strings.TrimSpace(string(b))
	if i := strings.LastIndexByte(s, ':'); i <= 0 || i == len(s)-1 {
		return ""
	}
	return s
}

// peakRSS reads a running process's peak resident set (VmHWM) in bytes.
// It is read from /proc rather than from the exit rusage because on
// Linux a child's ru_maxrss also counts the parent's resident set at
// the moment of the fork, which would charge the driver's memory to the
// system under test.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// stop reads the process's peak resident set, sends SIGTERM, and waits
// for the graceful drain. A daemon that does not exit 0 with its
// clean-drain marker is an error.
func (d *daemon) stop(timeout time.Duration) (int64, error) {
	var rss int64
	select {
	case <-d.exited:
	default:
		var err error
		if rss, err = peakRSS(d.cmd.Process.Pid); err != nil {
			d.kill()
			return 0, err
		}
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(timeout):
			d.cmd.Process.Kill()
			<-d.exited
			return 0, fmt.Errorf("%s did not drain within %v", d.name, timeout)
		}
	}
	if d.waitErr != nil {
		return 0, fmt.Errorf("%s exited with %v\n%s", d.name, d.waitErr, d.log())
	}
	if !strings.Contains(d.log(), "drained cleanly") {
		return 0, fmt.Errorf("%s exited without its clean-drain marker\n%s", d.name, d.log())
	}
	return rss, nil
}

// kill ends the process without a drain (error paths only).
func (d *daemon) kill() {
	select {
	case <-d.exited:
	default:
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// topology is the set of daemons one serving workload runs: one memctld,
// or two memctld shards behind a memrouterd.
type topology struct {
	shards []*daemon
	router *daemon // nil when clients talk to the single shard directly
}

// dataAddr is where the driver's connections go.
func (t *topology) dataAddr() string {
	if t.router != nil {
		return t.router.bin
	}
	return t.shards[0].bin
}

// launch starts w's daemons and returns once every listener is up and
// the front door's /healthz answers 200, with the time that took. The
// shards start together; the router starts once they are ready, so its
// first health probe already passes.
func launch(w *workload, seed uint64, binDir, runDir string) (*topology, time.Duration, error) {
	t := &topology{}
	begin := now()
	deadline := begin.Add(120 * time.Second)
	shardLines := w.lines / uint64(w.shards)
	for i := 0; i < w.shards; i++ {
		d, err := startDaemon(binDir, runDir, fmt.Sprintf("shard%d", i), "memctld", []string{
			"-banks", strconv.Itoa(w.banks / w.shards),
			"-lines", strconv.FormatUint(shardLines, 10),
			"-scheme", "srbsg+adaptive",
			"-seed", strconv.FormatUint(seed*1000+uint64(i)*100, 10),
		})
		if err != nil {
			t.kill()
			return nil, 0, err
		}
		t.shards = append(t.shards, d)
	}
	for _, d := range t.shards {
		if err := d.waitReady(deadline); err != nil {
			t.kill()
			return nil, 0, err
		}
	}
	if w.shards > 1 {
		var bins, ctls, groups []string
		for i, d := range t.shards {
			bins = append(bins, d.bin)
			ctls = append(ctls, d.ctl)
			groups = append(groups, strconv.Itoa(i))
		}
		r, err := startDaemon(binDir, runDir, "router", "memrouterd", []string{
			"-shards", strings.Join(bins, ","),
			"-shard-control", strings.Join(ctls, ","),
			"-lines", strconv.FormatUint(w.lines, 10),
			"-groups", strconv.Itoa(w.shards),
			"-group-map", strings.Join(groups, ","),
		})
		if err != nil {
			t.kill()
			return nil, 0, err
		}
		t.router = r
		if err := r.waitReady(deadline); err != nil {
			t.kill()
			return nil, 0, err
		}
	}
	return t, now().Sub(begin), nil
}

// shutdown drains the topology router first (its in-flight frames need
// live shards) and returns the summed peak RSS of every process.
func (t *topology) shutdown() (int64, error) {
	var total int64
	var errs []error
	all := t.shards
	if t.router != nil {
		all = append([]*daemon{t.router}, t.shards...)
	}
	for _, d := range all {
		rss, err := d.stop(30 * time.Second)
		total += rss
		errs = append(errs, err)
	}
	return total, errors.Join(errs...)
}

func (t *topology) kill() {
	if t.router != nil {
		t.router.kill()
	}
	for _, d := range t.shards {
		d.kill()
	}
}

// scrape fetches a /metrics page and sums every series over its labels.
func scrape(addr string) (map[string]float64, time.Duration, error) {
	begin := now()
	resp, err := httpClient.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	took := now().Sub(begin)
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET %s/metrics: %s", addr, resp.Status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		name := f[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, 0, fmt.Errorf("metric %s: %w", f[0], err)
		}
		out[name] += v
	}
	return out, took, nil
}
