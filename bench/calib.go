package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The calibrator measures how fast the box is while a run is under way. It
// is a child process of the benchmark's own binary that every calibInterval
// runs a fixed kernel of the kind of work the daemon does (decode and
// re-encode a ~30 KB JSON graph: allocation, pointer chasing, GC) and
// reports the CPU time the kernel took. On a quiet reference box that is
// calibRefMS; the reference VM shares its host, and for minutes at a time
// the same kernel takes up to 1.9× as long, and a daemon request with it.
// The run's paced-phase times are corrected by that ratio (host.slowdown).
//
// It is a process of its own so that its heap and its garbage collector are
// not the load generator's, and it costs ~2.5 % of one core.
const (
	calibEnv      = "CHATGRAPH_BENCH_CALIBRATE"
	calibInterval = 100 * time.Millisecond
	// calibRefMS is the kernel's CPU time on the reference box when the host
	// is quiet (README.md, "Speed correction"). It only fixes the scale: on
	// other hardware every corrected time moves by one common factor.
	calibRefMS = 1.05
	// calibShare is how much of the kernel's slowdown a request is taken to
	// feel, as an exponent: an allocation-bound 30 ms chat feels all of it, a
	// 1 ms request that is half syscalls and wake-ups about half. ⅔ gave the
	// steadiest times over every set of sizing runs (README.md, same section);
	// anything from 0.5 to 0.85 did nearly as well, 0 and 1 clearly worse.
	calibShare = 2.0 / 3
	// calibMinSamples is the fewest kernel runs a phase must hold for its
	// slowdown to be believed; with fewer the phase is left uncorrected.
	calibMinSamples = 5
)

type calibEdge struct{ From, To int }

type calibDoc struct {
	Nodes []map[string]any `json:"nodes"`
	Edges []calibEdge      `json:"edges"`
}

// calibInput is the kernel's fixed input: a 200-node, 1200-edge graph
// document, the same bytes in every process.
func calibInput() []byte {
	rng := rand.New(rand.NewSource(1))
	var d calibDoc
	for i := 0; i < 200; i++ {
		d.Nodes = append(d.Nodes, map[string]any{"id": i, "label": fmt.Sprintf("n%d", i)})
	}
	for i := 0; i < 1200; i++ {
		d.Edges = append(d.Edges, calibEdge{rng.Intn(200), rng.Intn(200)})
	}
	return mustJSON(d)
}

// calibKernel decodes raw and encodes it again; it returns the encoded
// length so the work cannot be optimised away.
func calibKernel(raw []byte) int {
	var d calibDoc
	if err := json.Unmarshal(raw, &d); err != nil {
		panic(err) // raw is calibInput's own output
	}
	return len(mustJSON(d))
}

// calibSpin is ~1 ms of register-only arithmetic, run untimed before each
// kernel: the child has just slept, and without it the kernel would time the
// core's wake-up (cold caches, clock ramp), which a sleeping process feels
// and a busy daemon does not.
func calibSpin(x uint64) uint64 {
	for i := 0; i < 400_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// processCPU is the CPU time this process has used, to the nanosecond
// (CLOCK_PROCESS_CPUTIME_ID; /proc's counters tick in 10 ms).
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0) //nolint:errcheck // cannot fail with a valid clock id
	return time.Duration(ts.Nano())
}

// runCalibrator is the child's main: until stdin closes (the parent stops
// it, or has died) it prints "<start unix ns> <kernel cpu ns>" per interval.
func runCalibrator() {
	go func() {
		io.Copy(io.Discard, os.Stdin) //nolint:errcheck // EOF or error, either way the parent is gone
		os.Exit(0)
	}()
	raw := calibInput()
	x := uint64(88172645463325252)
	for {
		x = calibSpin(x)
		start, c0 := time.Now(), processCPU()
		x += uint64(calibKernel(raw))
		fmt.Printf("%d %d\n", start.UnixNano(), int64(processCPU()-c0))
		time.Sleep(calibInterval)
	}
}

type calibSample struct {
	at time.Time
	ms float64
}

// calibrator is the parent's handle on the child and the samples it sent.
type calibrator struct {
	cmd   *exec.Cmd
	stdin io.Closer
	// read is closed when the child's stdout has reached EOF.
	read chan struct{}

	mu      sync.Mutex
	samples []calibSample
}

func startCalibrator() (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &calibrator{cmd: exec.Command(exe), read: make(chan struct{})}
	c.cmd.Env = append(os.Environ(), calibEnv+"=1")
	stdin, err := c.cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	c.stdin = stdin
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start calibrator: %w", err)
	}
	go func() {
		defer close(c.read)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			var at, cpu int64
			if n, _ := fmt.Sscanf(sc.Text(), "%d %d", &at, &cpu); n == 2 {
				c.mu.Lock()
				c.samples = append(c.samples, calibSample{time.Unix(0, at), ms(time.Duration(cpu))})
				c.mu.Unlock()
			}
		}
	}()
	return c, nil
}

// stop ends the child and waits for it.
func (c *calibrator) stop() error {
	c.stdin.Close()
	timer := time.AfterFunc(5*time.Second, func() { c.cmd.Process.Kill() })
	defer timer.Stop()
	<-c.read
	return c.cmd.Wait()
}

// speedCorrected is a paced-phase time as the clock read it, less the share
// of the host's slowdown a request feels.
func speedCorrected(raw, slowdown float64) float64 {
	return raw / math.Pow(slowdown, calibShare)
}

// slowdown is how many times slower than the quiet reference box the
// kernel ran between from and to (the median of the runs started then), and
// how many runs that is. Too few runs read as 1: no correction.
func (c *calibrator) slowdown(from, to time.Time) (factor float64, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var in []float64
	for _, s := range c.samples {
		if !s.at.Before(from) && s.at.Before(to) {
			in = append(in, s.ms)
		}
	}
	if len(in) < calibMinSamples {
		return 1, len(in)
	}
	return median(in) / calibRefMS, len(in)
}
