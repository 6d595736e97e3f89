package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"chatgraph/internal/core"
)

// phases is the run shape every workload shares: a discarded closed-loop
// warm-up, the paced (open-loop) phase that yields latency and CPU per op,
// and the saturating (closed-loop) phase that yields capacity.
type phases struct{ warm, paced, saturate time.Duration }

// splitPhases divides the measured seconds 1 : 10 : 9. The paced phase must
// hold ≥ 240 samples even at chat_large_cold's 24 req/s, so that p95 has
// minBeyond samples beyond it; the saturate phase gets nearly as much because
// capacity is the metric the host's wandering speed moves most.
func splitPhases(seconds float64) phases {
	unit := time.Duration(seconds / 20 * float64(time.Second))
	return phases{warm: unit, paced: 10 * unit, saturate: 9 * unit}
}

// runConfig is what one end-to-end run of one workload needs.
type runConfig struct {
	seed    int64
	seconds float64
	// setupReps is how many times the daemon is booted to take setup_s as a
	// median; the last boot is the one the load runs against.
	setupReps int
	bin       string
	eng       *core.Engine // oracle engine, matching the workload's retrieval tier
}

// e2eResult is everything one end-to-end run measured. values holds both
// the end-to-end metrics and the per-layer facts that only the daemon run
// can supply (daemon.*, gen.*, op.*, and the /metrics deltas).
type e2eResult struct {
	workload  string
	values    map[string]float64
	attempted int
	failed    int
	// failures are the first few failed ops, with their X-Request-ID.
	failures []string
	// invalid is why the paced phase cannot be trusted ("" = valid).
	invalid string
	// pacedN and p95Beyond are printed beside p95_ms: the paced samples and
	// how many of them lie beyond the percentile.
	pacedN, p95Beyond int
	// daemonHandlerMS is the daemon's own mean handler time per paced op
	// (Σ chatgraph_http_request_duration_seconds ÷ ops): the untraced
	// reference the in-process server.handler_ms is compared with.
	daemonHandlerMS float64
	// ops are the generated paced ops (with oracle expectations), which the
	// traced run replays.
	warmOps, pacedOps []op
	notes             []string
}

// failedLatency stands in for +Inf where a latency must be printed: an op
// that failed, was refused or answered wrongly misses any latency limit.
const failedLatency = 1e12

func runE2E(w workload, cfg runConfig) (*e2eResult, error) {
	ph := splitPhases(cfg.seconds)
	pacedN := int(math.Round(w.pacedRate * ph.paced.Seconds()))
	warmN := int(math.Ceil(w.maxRate * ph.warm.Seconds()))
	satN := int(math.Ceil(w.maxRate * ph.saturate.Seconds()))
	ops := w.generate(cfg.seed, warmN+pacedN+satN)
	warmOps, pacedOps, satOps := ops[:warmN], ops[warmN:warmN+pacedN], ops[warmN+pacedN:]
	schedule(pacedOps, w.pacedRate, cfg.seed)
	if err := newOracle(cfg.eng).fill(ops); err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp(outDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tenantsPath := filepath.Join(dir, "tenants.json")
	if w.tenants {
		if err := os.WriteFile(tenantsPath, []byte(tenantsFile), 0o644); err != nil {
			return nil, err
		}
	}

	// Every boot gets an empty data dir; the last one is the daemon the
	// load runs against.
	var d *daemon
	var setups []float64
	for i := 1; i <= cfg.setupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		d, err = startDaemon(cfg.bin, w.daemonFlags(filepath.Join(dir, fmt.Sprintf("data%d", i)), tenantsPath))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop() //nolint:errcheck // error path: the first error is the one reported
		}
	}()

	lc, err := newLoadClient(d.base, w, cfg.eng.Registry())
	if err != nil {
		return nil, err
	}
	defer lc.close()
	pid := d.cmd.Process.Pid

	cal, err := startCalibrator()
	if err != nil {
		return nil, err
	}
	calStopped := false
	defer func() {
		if !calStopped {
			cal.stop() //nolint:errcheck // error path: the first error is the one reported
		}
	}()

	r := &e2eResult{workload: w.name, values: map[string]float64{}, pacedN: pacedN, warmOps: warmOps, pacedOps: pacedOps}
	var all []sample

	warm, _ := runClosed(warmOps, ph.warm, lc.do)
	all = append(all, warm...)

	s1, err := lc.scrape()
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuTime(pid)
	if err != nil {
		return nil, err
	}
	self1, _ := cpuTime(os.Getpid())
	pacedStart := time.Now()
	paced := runPaced(pacedOps, lc.do)
	pacedWall := time.Since(pacedStart)
	cpu2, err := cpuTime(pid)
	if err != nil {
		return nil, err
	}
	self2, _ := cpuTime(os.Getpid())
	s2, err := lc.scrape()
	if err != nil {
		return nil, err
	}
	all = append(all, paced...)

	satStart := time.Now()
	sat, satWall := runClosed(satOps, ph.saturate, lc.do)
	all = append(all, sat...)
	calStopped = true
	if err := cal.stop(); err != nil {
		return nil, fmt.Errorf("calibrator: %w", err)
	}
	if len(sat) == len(satOps) {
		r.notes = append(r.notes, fmt.Sprintf("saturate phase ran out of pre-generated ops after %.2fs; raise maxRate", satWall.Seconds()))
	}
	s3, err := lc.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return nil, err
	}
	train := d.trainSeconds()
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}

	r.attempted, r.failed, r.failures = tally(all)

	// End-to-end metrics. The two paced-phase times are corrected by how much
	// slower than the quiet reference box the calibration kernel ran during
	// that phase (calib.go); raw.* are the same two as the clock read them.
	v := r.values
	slow, calN := cal.slowdown(pacedStart, pacedStart.Add(pacedWall))
	if calN < calibMinSamples {
		r.notes = append(r.notes, fmt.Sprintf("only %d calibration samples in the paced phase: p50_ms and cpu_ms_per_op are not speed-corrected", calN))
	}
	v["host.slowdown"], v["host.calib_samples"] = slow, float64(calN)
	v["host.slowdown_sat"], _ = cal.slowdown(satStart, satStart.Add(satWall))
	lat := latencies(paced, nil)
	v["raw.p50_ms"] = median(quietHalf(lat))
	v["raw.cpu_ms_per_op"] = ms(cpu2-cpu1) / float64(pacedN)
	v["setup_s"] = median(setups)
	v["p50_ms"] = speedCorrected(v["raw.p50_ms"], slow)
	v["cpu_ms_per_op"] = speedCorrected(v["raw.cpu_ms_per_op"], slow)
	v["ops_per_s"] = throughput(sat, satWall)
	v["p95_ms"], r.p95Beyond = quantile(lat, 0.95)
	v["fail_share"] = ratio(float64(r.failed), float64(r.attempted))

	// Validity of the paced phase: the generator kept its schedule and the
	// daemon kept up with it.
	var late []float64
	for _, s := range paced {
		if s.idle {
			late = append(late, ms(s.sent-s.due))
		}
	}
	v["gen.late_p95_ms"], _ = quantile(late, 0.95)
	q := len(paced) / 4
	v["gen.backlog_growth_ms"] = meanDelay(paced[3*q:]) - meanDelay(paced[2*q:3*q])
	v["gen.cpu_share"] = (self2 - self1).Seconds() / (pacedWall.Seconds() * float64(runtime.NumCPU()))
	switch {
	case v["gen.late_p95_ms"] > 1:
		r.invalid = fmt.Sprintf("generator ran late: gen.late_p95_ms = %.3f > 1", v["gen.late_p95_ms"])
	case v["gen.backlog_growth_ms"] > 0.02*ms(ph.paced):
		r.invalid = fmt.Sprintf("backlog still growing at the end of the paced phase: start delay rose %.1f ms over its last quarter", v["gen.backlog_growth_ms"])
	}

	// Per-layer facts only the daemon run can supply.
	v["paced.samples"] = float64(pacedN)
	v["daemon.peak_rss_mb"] = rss
	v["daemon.setup_train_s"] = train
	v["daemon.ops_per_s_drift"] = drift(sat, satWall)
	for kind, name := range map[opKind]string{opChat: "op.chat_p50_ms", opRetrieve: "op.retrieve_p50_ms", opJob: "op.job_p50_ms"} {
		k := kind
		v[name] = median(latencies(paced, &k))
	}
	var first []float64
	for _, s := range paced {
		if s.out.ok && !s.out.firstEvent.IsZero() {
			first = append(first, ms(s.out.firstEvent.Sub(s.out.sent)))
		}
	}
	v["op.stream_first_event_p50_ms"] = median(first)

	const dur = "chatgraph_http_request_duration_seconds_sum"
	var handlerS float64
	for _, route := range []string{"v1.chat", "v1.retrieve", "v1.jobs.create", "v1.jobs.get"} {
		handlerS += delta(s1, s2, dur, fmt.Sprintf("route=%q", route))
	}
	r.daemonHandlerMS = handlerS * 1000 / float64(pacedN)
	v["daemon.handler_ms"] = r.daemonHandlerMS
	// What the wire, the kernel and the client add: the mean time the client
	// saw an op take, less the mean time the daemon's handlers say it took.
	var service []float64
	for _, s := range paced {
		service = append(service, ms(s.done-s.sent))
	}
	v["transport.ms"] = mean(service) - r.daemonHandlerMS
	v["server.shed"] = delta(s1, s3, "chatgraph_http_shed_total")
	v["jobs.shed"] = delta(s1, s3, "chatgraph_jobs_shed_total")
	v["durable.wal_bytes_per_op"] = delta(s1, s2, "chatgraph_wal_bytes_total") / float64(pacedN)
	v["durable.fsyncs"] = delta(s1, s2, "chatgraph_wal_fsyncs_total")
	v["durable.append_errors"] = s3.sum("chatgraph_wal_append_errors_total")
	gh, gm := delta(s1, s3, "chatgraph_graphstore_hits_total"), delta(s1, s3, "chatgraph_graphstore_misses_total")
	v["daemon.graphstore_hit_ratio"] = ratio(gh, gh+gm)
	ih, im := delta(s1, s3, "chatgraph_invoke_cache_hits_total"), delta(s1, s3, "chatgraph_invoke_cache_misses_total")
	v["daemon.invoke_hit_ratio"] = ratio(ih, ih+im)
	return r, nil
}

// tally counts every op sent in any phase and the ones that failed: a
// transport error, a non-2xx status (429/503/504 included) or a reply the
// oracle rejects. failures names the first few with their X-Request-ID.
func tally(samples []sample) (attempted, failed int, failures []string) {
	for _, s := range samples {
		attempted++
		if !s.out.ok {
			failed++
			if len(failures) < 5 {
				failures = append(failures, fmt.Sprintf("%s op (X-Request-ID %s): %s", s.op.kind, s.out.reqID, s.out.why))
			}
		}
	}
	return attempted, failed, failures
}

// latencies returns the from-due latency of every sample of kind (nil =
// all kinds); a failed op counts as missing any limit.
func latencies(samples []sample, kind *opKind) []float64 {
	var out []float64
	for _, s := range samples {
		if kind != nil && s.op.kind != *kind {
			continue
		}
		if s.out.ok {
			out = append(out, s.latencyMS())
		} else {
			out = append(out, failedLatency)
		}
	}
	return out
}

// rateWindows is how many equal-count runs throughput cuts the closed-loop
// phase's completions into; it reports the mean of the fastest quarter.
const rateWindows = 24

// throughput is the correct operations per second the closed-loop phase
// sustained while the host let it run: the completions are cut into
// rateWindows consecutive runs of equal count and the mean rate of the
// fastest quarter of them is reported. Host interference only ever slows a
// run down, so the fast quarter repeats where the phase's plain rate (which
// on the reference VM swings by 15 % from one ten-second stretch to the
// next) does not; it also leaves out the ramp, the second or so after the
// load steps up from the paced rate during which vCPUs that idled come back
// up to speed. Too few completions to cut read as the plain rate over wall.
func throughput(samples []sample, wall time.Duration) float64 {
	var done []float64
	for _, s := range samples {
		if s.out.ok {
			done = append(done, s.done.Seconds())
		}
	}
	sort.Float64s(done)
	n := (len(done) - 1) / rateWindows // intervals per run
	if n < 1 {
		return ratio(float64(len(done)), wall.Seconds())
	}
	rates := make([]float64, rateWindows)
	for i := range rates {
		rates[i] = float64(n) / (done[(i+1)*n] - done[i*n])
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(rates)))
	return mean(rates[:rateWindows/4])
}

// meanDelay is the mean time ops waited past their due time before a
// client sent them.
func meanDelay(samples []sample) float64 {
	var d []float64
	for _, s := range samples {
		d = append(d, ms(s.sent-s.due))
	}
	return mean(d)
}

// drift is the closed-loop phase's last-third throughput over its
// first-third throughput, the first quarter (the ramp, see throughput) left
// out: below 1 means the daemon slowed as state accumulated.
func drift(samples []sample, wall time.Duration) float64 {
	ramp, third := wall/4, wall/4
	var first, last float64
	for _, s := range samples {
		switch {
		case !s.out.ok || s.done < ramp:
		case s.done < ramp+third:
			first++
		case s.done >= ramp+2*third:
			last++
		}
	}
	return ratio(last, first)
}
