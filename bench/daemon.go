package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
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
)

// outDir holds everything a run leaves behind (daemon binary, data dirs,
// trace files); bench/.gitignore excludes it.
const outDir = "bench/out"

// buildDaemon compiles ./cmd/chatgraphd into outDir. It must run from the
// module root; build time is excluded from every metric.
func buildDaemon() (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "chatgraphd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/chatgraphd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/chatgraphd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one chatgraphd subprocess.
type daemon struct {
	cmd  *exec.Cmd
	base string
	// setup is exec → first 200 from /readyz.
	setup time.Duration
	// logs is closed when the stderr reader has seen EOF.
	logs chan struct{}

	mu sync.Mutex
	// trainAt/listenAt are when the "training ..." and "listening on" log
	// lines arrived on our end of the stderr pipe.
	trainAt, listenAt time.Time
	tail              []string
}

// freeAddr asks the kernel for an unused loopback port. The daemon logs the
// address it was given, not the one it bound, so ":0" cannot be used.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon execs bin with the common flags plus extra and waits until
// /readyz answers 200.
func startDaemon(bin string, extra []string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-seed", "42", "-molecules", "200"}, extra...)
	d := &daemon{cmd: exec.Command(bin, args...), base: "http://" + addr, logs: make(chan struct{})}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go d.readLogs(stderr)

	// A private client: readiness polling must not occupy the two
	// keep-alive connections the load runs on.
	hc := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := hc.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // probe body is irrelevant
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(start)
				return d, nil
			}
		}
		select {
		case <-d.logs: // stderr closed: the daemon died during boot
			d.cmd.Wait() //nolint:errcheck // reported through the log tail
			return nil, fmt.Errorf("chatgraphd exited during set-up:\n%s", d.logTail())
		default:
		}
		if time.Now().After(deadline) {
			d.stop() //nolint:errcheck // already failing
			return nil, fmt.Errorf("chatgraphd not ready after 60s:\n%s", d.logTail())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) readLogs(r io.Reader) {
	defer close(d.logs)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line, now := sc.Text(), time.Now()
		d.mu.Lock()
		switch {
		case strings.Contains(line, "training chain-generation model"):
			d.trainAt = now
		case strings.Contains(line, "chatgraphd listening on"):
			d.listenAt = now
		}
		if d.tail = append(d.tail, line); len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
	}
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// trainSeconds is the span between the daemon's "training ..." and
// "listening on" log lines: the part of set-up that is model training and
// index build.
func (d *daemon) trainSeconds() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.trainAt.IsZero() || d.listenAt.IsZero() {
		return 0
	}
	return d.listenAt.Sub(d.trainAt).Seconds()
}

// stop sends SIGTERM and waits for the daemon to drain and exit, killing it
// if it has not within 15 s.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already-exited is handled by Wait
	timer := time.AfterFunc(15*time.Second, func() { d.cmd.Process.Kill() })
	defer timer.Stop()
	<-d.logs
	err := d.cmd.Wait()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return fmt.Errorf("chatgraphd: %w\n%s", err, d.logTail())
	}
	return err
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux ABI Go targets (it is a kernel ABI constant, not the
// scheduler's HZ).
const clockTick = 10 * time.Millisecond

// parseProcStat extracts user+system CPU time from one /proc/<pid>/stat
// line. The comm field (2) may contain spaces and parentheses, so fields
// are counted from the last ')'.
func parseProcStat(line string) (time.Duration, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no comm field in %q", line)
	}
	f := strings.Fields(line[i+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after comm, want at least 13", len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseUint(f[12], 10, 64) // field 15
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("proc stat: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// parseProcStatusKB returns the named kB field (e.g. "VmHWM") of a
// /proc/<pid>/status document.
func parseProcStatusKB(status, field string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("proc status: no %s line", field)
}

// cpuTime reads the user+system CPU time pid has consumed so far.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// peakRSSMB reads pid's high-water resident set size.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseProcStatusKB(string(b), "VmHWM")
	return kb / 1024, err
}

// scrape is one /metrics document: full series text ("name{labels}") →
// value.
type scrape map[string]float64

func parseScrape(r io.Reader) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// sum adds every series of family name whose label text contains all of
// the given fragments (e.g. `route="v1.chat"`).
func (s scrape) sum(name string, fragments ...string) float64 {
	var total float64
series:
	for k, v := range s {
		fam, labels, _ := strings.Cut(k, "{")
		if fam != name {
			continue
		}
		for _, f := range fragments {
			if !strings.Contains(labels, f) {
				continue series
			}
		}
		total += v
	}
	return total
}

// delta is after−before for one family, summed as in sum.
func delta(before, after scrape, name string, fragments ...string) float64 {
	return after.sum(name, fragments...) - before.sum(name, fragments...)
}
