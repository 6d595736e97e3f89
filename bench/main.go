// Command bench is the repository's benchmark: four named workloads driven
// against a fresh chatgraphd subprocess each, four bounded end-to-end
// metrics plus a tail latency and a failure count, and a traced run that replays the same
// generated requests in process, layer by layer. README.md documents the
// workloads, the metrics, and how a later change cites them.
//
//	go run ./bench -seed 1                    # every workload, end to end
//	go run ./bench -seed 1 -trace 1           # … plus the per-layer table and bench/out/trace-*.json
//	go run ./bench -check                     # two full sets, compared against BENCHMARK.json's bounds
//	go run ./bench -quick -trace 1            # everything, briefly (CI smoke)
//	go run ./bench --workload chat_large_cold --seed 7 --seconds 20 --trace 0
//
// The last form is the one the benchmark driver uses: one workload, and a
// final stdout line holding one JSON object with the run's metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"

	"chatgraph/internal/core"
	"chatgraph/internal/finetune"
)

// metricDecl declares one metric. The two tables below are the program's
// half of BENCHMARK.json; TestBenchmarkJSONMatchesTables keeps them equal.
type metricDecl struct{ name, unit, better string }

var endToEnd = []metricDecl{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
}

// perLayer starts with the measures of the whole system that carry no bound:
// fail_share because it is 0 on a healthy run, ops_per_s and p95_ms because
// on the reference VM they follow the host and its scheduler, not the
// program (README.md, "Bounds"); then what the speed correction was made of.
var perLayer = []metricDecl{
	{"fail_share", "ratio", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p95_ms", "ms", "lower"},
	{"raw.p50_ms", "ms", "lower"},
	{"raw.cpu_ms_per_op", "ms", "lower"},
	{"host.slowdown", "ratio", "lower"},
	{"host.slowdown_sat", "ratio", "lower"},
	{"host.calib_samples", "count", "higher"},
	{"paced.samples", "count", "higher"},

	{"server.handler_ms", "ms", "lower"},
	{"server.self_ms", "ms", "lower"},
	{"server.self_share", "ratio", "lower"},
	{"server.encode_ms", "ms", "lower"},
	{"server.shed", "count", "lower"},
	{"layers.covered_share", "ratio", "higher"},
	{"transport.ms", "ms", "lower"},

	{"graph.parse_ms", "ms", "lower"},
	{"graph.parse_bytes", "B", "lower"},
	{"graph.classify_ms", "ms", "lower"},
	{"graphstore.intern_ms", "ms", "lower"},
	{"graphstore.hit_ratio", "ratio", "higher"},
	{"graphstore.evictions", "count", "lower"},
	{"graphstore.bytes", "B", "lower"},

	{"retrieve.names_ms", "ms", "lower"},
	{"retrieve.batch_ms_per_query", "ms", "lower"},

	{"seq.sequentialize_ms", "ms", "lower"},
	{"seq.share_of_handler", "ratio", "lower"},
	{"seq.paths_generated", "count", "lower"},
	{"seq.rendered_ratio", "ratio", "higher"},

	{"llm.prompt_self_ms", "ms", "lower"},
	{"llm.prompt_bytes", "B", "lower"},
	{"llm.complete_ms", "ms", "lower"},
	{"chain.parse_ms", "ms", "lower"},

	{"executor.run_ms", "ms", "lower"},
	{"executor.steps", "count", "lower"},
	{"apis.invoke_hit_ratio", "ratio", "higher"},
	{"apis.invoke_evictions", "count", "lower"},

	{"durable.log_turn_ms", "ms", "lower"},
	{"durable.persist_graph_ms", "ms", "lower"},
	{"durable.calls", "count", "lower"},
	{"durable.wal_bytes_per_op", "B", "lower"},
	{"durable.fsyncs", "count", "lower"},
	{"durable.append_errors", "count", "lower"},

	{"jobs.submit_ms", "ms", "lower"},
	{"jobs.queue_wait_p50_ms", "ms", "lower"},
	{"jobs.run_p50_ms", "ms", "lower"},
	{"jobs.calls", "count", "lower"},
	{"jobs.shed", "count", "lower"},

	{"tenant.admit_ns", "ns", "lower"},
	{"tenant.calls", "count", "lower"},
	{"cluster.hop_ms", "ms", "lower"},

	{"op.chat_p50_ms", "ms", "lower"},
	{"op.retrieve_p50_ms", "ms", "lower"},
	{"op.job_p50_ms", "ms", "lower"},
	{"op.stream_first_event_p50_ms", "ms", "lower"},

	{"daemon.handler_ms", "ms", "lower"},
	{"daemon.peak_rss_mb", "MB", "lower"},
	{"daemon.ops_per_s_drift", "ratio", "higher"},
	{"daemon.setup_train_s", "s", "lower"},
	{"daemon.graphstore_hit_ratio", "ratio", "higher"},
	{"daemon.invoke_hit_ratio", "ratio", "higher"},

	{"gen.late_p95_ms", "ms", "lower"},
	{"gen.backlog_growth_ms", "ms", "lower"},
	{"gen.cpu_share", "ratio", "lower"},
	{"trace.handler_gap_pct", "%", "lower"},
	{"trace.requests", "count", "higher"},
}

// unbounded is how many leading perLayer entries come from the end-to-end run
// and are printed with every workload, traced or not.
const unbounded = 8

// benchmarkFile is the part of BENCHMARK.json this program reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// settings are the run lengths of the three modes.
type settings struct {
	seconds   float64
	setupReps int
	traced    int
}

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload and end with the driver's one-line JSON result (default: all four)")
		seed    = flag.Int64("seed", 1, "workload seed: shapes the generated graphs, questions, op order and arrival jitter, nothing else")
		seconds = flag.Float64("seconds", 0, "measured seconds per run, split warm-up:paced:saturate = 1:10:9 (default: BENCHMARK.json's run_seconds)")
		trace   = flag.Int("trace", 0, "1 = also replay the paced requests in process and report the per-layer metrics")
		check   = flag.Bool("check", false, "run the whole set twice and fail if any end-to-end metric differs by more than its declared bound")
		quick   = flag.Bool("quick", false, "short phases, 40 traced requests, one boot: exercises everything in well under a minute, measures nothing")
	)
	flag.Parse()
	if os.Getenv(calibEnv) != "" {
		runCalibrator() // this process is a run's calibration child; never returns
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *check, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace, check, quick bool) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	// Three boots per workload when the model training of this process is
	// shared by all four; one when the driver runs a single workload per
	// process 92 times and every boot is four seconds of its budget (it
	// takes setup_s as the median of ten such runs).
	set := settings{seconds: float64(bf.RunSeconds), setupReps: 3, traced: tracedRequests}
	if quick {
		set = settings{seconds: 3, setupReps: 1, traced: 40}
	}
	if seconds > 0 {
		set.seconds = seconds
	}
	if trace || name != "" {
		set.setupReps = 1 // a traced run reports daemon.setup_train_s, not setup_s
	}
	ws := workloads()
	if name != "" {
		w, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		ws = []workload{w}
	}

	bin, err := buildDaemon()
	if err != nil {
		return err
	}
	ph := splitPhases(set.seconds)
	fmt.Printf("chatgraph bench: seed=%d seconds=%g (warm-up %s, paced %s, saturate %s) clients=%d nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		seed, set.seconds, ph.warm, ph.paced, ph.saturate, clients, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())

	// One trained model serves every in-process engine of this run.
	plain, err := newEngine(nil, false)
	if err != nil {
		return err
	}
	b := &bench{bin: bin, set: set, model: plain.Model(), engines: map[bool]*core.Engine{false: plain}, trace: trace}

	if check {
		return b.check(ws, seed, bf)
	}
	var last *result
	for _, w := range ws {
		if last, err = b.one(w, seed); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		last.print(!quick)
	}
	if name != "" {
		return last.emit(trace)
	}
	return nil
}

// commit names the checked-out commit when the working directory is a git
// repository (the driver's checkout is not).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// bench is the state one invocation shares across workloads.
type bench struct {
	bin   string
	set   settings
	model *finetune.Model
	// engines are the oracle engines, by retrieval tier (quantized or not).
	engines map[bool]*core.Engine
	trace   bool
}

// result is one workload's run: the end-to-end measurement and, with
// -trace 1, the per-layer metrics.
type result struct {
	e2e    *e2eResult
	layers map[string]float64
}

func (b *bench) one(w workload, seed int64) (*result, error) {
	eng := b.engines[w.quantize]
	if eng == nil {
		var err error
		if eng, err = newEngine(b.model, w.quantize); err != nil {
			return nil, err
		}
		b.engines[w.quantize] = eng
	}
	e2e, err := runE2E(w, runConfig{seed: seed, seconds: b.set.seconds, setupReps: b.set.setupReps, bin: b.bin, eng: eng})
	if err != nil {
		return nil, err
	}
	r := &result{e2e: e2e}
	if b.trace {
		if r.layers, err = runTrace(w, b.model, e2e, b.set.traced, seed); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// value looks a metric up in the end-to-end run first, then the trace.
func (r *result) value(name string) (float64, bool) {
	if v, ok := r.e2e.values[name]; ok {
		return v, true
	}
	v, ok := r.layers[name]
	return v, ok
}

// print writes the workload's metrics by name with their units. full=false
// (quick mode) marks the numbers as not measurements.
func (r *result) print(full bool) {
	e := r.e2e
	fmt.Printf("\nworkload %s\n", e.workload)
	if !full {
		fmt.Println("  (quick mode: phases too short to measure anything; numbers only show the plumbing works)")
	}
	// The paced phase's numbers are not numbers when the phase was invalid.
	line := func(d metricDecl, paced bool, note string) {
		if paced && e.invalid != "" {
			fmt.Printf("  %-30s %14s %-6s %s\n", d.name, "INVALID", d.unit, note)
			return
		}
		fmt.Printf("  %-30s %14.4f %-6s %s\n", d.name, e.values[d.name], d.unit, note)
	}
	corrected := fmt.Sprintf("÷ host.slowdown^⅔, %.3f", e.values["host.slowdown"])
	for _, d := range endToEnd {
		switch d.name {
		case "p50_ms":
			line(d, true, fmt.Sprintf("(from due time, open loop; quieter half of %d slices; %s)", quietSlices, corrected))
		case "cpu_ms_per_op":
			line(d, true, "("+corrected+")")
		default:
			line(d, false, "")
		}
	}
	fmt.Println("  no bound:")
	for _, d := range perLayer[:unbounded] {
		switch d.name {
		case "fail_share":
			fmt.Printf("  %-30s %14.6f %-6s (%d failed of %d attempted)\n", d.name, e.values[d.name], d.unit, e.failed, e.attempted)
		case "ops_per_s":
			line(d, false, fmt.Sprintf("(closed loop; fastest quarter of %d equal-count runs)", rateWindows))
		case "p95_ms":
			note := fmt.Sprintf("(from due time, whole paced phase: %d samples, %d beyond)", e.pacedN, e.p95Beyond)
			if full && e.p95Beyond < minBeyond {
				note += " UNSUPPORTED: fewer than 10 samples beyond"
			}
			line(d, true, note)
		case "raw.p50_ms", "raw.cpu_ms_per_op":
			line(d, true, "(as the clock read it)")
		default:
			line(d, false, "")
		}
	}
	if e.invalid != "" {
		fmt.Printf("  INVALID paced phase: %s\n", e.invalid)
	}
	for _, f := range e.failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	for _, n := range e.notes {
		fmt.Printf("  note: %s\n", n)
	}
	if r.layers == nil {
		return
	}
	fmt.Printf("  per-layer (%d traced requests; *_ms are means per operation):\n", int(r.layers["trace.requests"]))
	for _, d := range perLayer[unbounded:] {
		if v, ok := r.value(d.name); ok {
			fmt.Printf("    %-30s %14.4f %s\n", d.name, v, d.unit)
		}
	}
}

// emit prints the driver's result object as the last line of stdout.
func (r *result) emit(trace bool) error {
	decls := endToEnd
	if trace {
		decls = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.e2e.failed == 0, r.e2e.attempted, r.e2e.failed, map[string]mv{}}
	for _, d := range decls {
		v, ok := r.value(d.name)
		if !ok {
			return fmt.Errorf("metric %s was declared but not measured", d.name)
		}
		out.Metrics[d.name] = mv{v, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// check runs every workload twice on the same code and compares each
// end-to-end metric with its declared bound.
func (b *bench) check(ws []workload, seed int64, bf *benchmarkFile) error {
	b.trace = false
	sets := [2]map[string]*result{{}, {}}
	for i := range sets {
		fmt.Printf("\n=== set %d ===\n", i+1)
		for _, w := range ws {
			r, err := b.one(w, seed)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			r.print(true)
			sets[i][w.name] = r
		}
	}
	fmt.Printf("\n=== repeatability: set 2 against set 1 ===\n")
	fmt.Printf("%-16s %-14s %12s %12s %8s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	var bad []string
	for _, w := range ws {
		r1, r2 := sets[0][w.name], sets[1][w.name]
		for _, m := range bf.EndToEnd {
			a, c := r1.e2e.values[m.Name], r2.e2e.values[m.Name]
			diff := ratio(math.Abs(a-c), (a+c)/2)
			verdict := ""
			if diff > m.Bound {
				verdict = "  EXCEEDS"
				bad = append(bad, w.name+"/"+m.Name)
			}
			fmt.Printf("%-16s %-14s %12.4f %12.4f %7.1f%% %6.0f%%%s\n", w.name, m.Name, a, c, 100*diff, 100*m.Bound, verdict)
		}
		for _, r := range []*result{r1, r2} {
			if r.e2e.failed > 0 {
				bad = append(bad, fmt.Sprintf("%s/fail_share (%d failed)", w.name, r.e2e.failed))
			}
			if r.e2e.invalid != "" {
				bad = append(bad, w.name+"/invalid paced phase")
			}
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("not repeatable within bounds: %s", strings.Join(bad, ", "))
	}
	fmt.Println("every end-to-end metric repeats within its bound; fail_share = 0 on every workload")
	return nil
}
