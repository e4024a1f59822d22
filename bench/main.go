// Command bench is the repository's benchmark: it builds a real td.Server,
// listens on a loopback TCP port, drives it from synchronous td.DialServer
// connections, prints every metric by name with its unit and sample count,
// and verifies the outputs of every workload. See README.md for the load
// model and for what each per-layer metric is predicted to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	td "repro"
)

const (
	// runSeconds is BENCHMARK.json's run_seconds. Each workload's op counts
	// are sized so that the seed's measured phase takes about this long;
	// --seconds scales every count in proportion.
	runSeconds = 12
	loadConns  = 2                      // synchronous connections of the load model
	openDur    = 4 * time.Second        // one open-loop rung
	sloP99     = 5 * time.Millisecond   // open-loop latency limit
	pingCalls  = 5000                   // Client.Ping round trips timed
	setups     = 5                      // set-ups per end-to-end run; setup_s is their median
	gapLimit   = 0.20                   // reconcile/stage gap printed "off" beyond this
	quiesce    = 100 * time.Millisecond // pause before measuring heap / copying files
)

type config struct {
	seed   uint64
	scale  float64 // --seconds / runSeconds: multiplies every op count
	e2e    bool    // print and return the end-to-end metrics
	layers bool    // run the ungated phases; print and return the per-layer metrics
	conns  int
	outDir string
	out    io.Writer
}

// scaled is n scaled to the requested run length, never below what the
// window arithmetic needs.
func (c *config) scaled(n int) int { return max(int(float64(n)*c.scale), 2*nWindows) }

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"` // samples behind the value
}

// recorder collects one workload's metrics and prints each as it arrives:
// workload, name, value, unit, sample count.
type recorder struct {
	cfg        *config
	Workload   string   `json:"workload"`
	EndToEnd   []metric `json:"end_to_end"`
	PerLayer   []metric `json:"per_layer"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	CheckFails []string `json:"check_failures"`
}

func (r *recorder) print(m metric) {
	fmt.Fprintf(r.cfg.out, "%-13s %-38s %14.4f %-6s n=%d\n", r.Workload, m.Name, m.Value, m.Unit, m.N)
}

func (r *recorder) e2e(name, unit string, v float64, n int) {
	if r.cfg.e2e {
		m := metric{name, v, unit, n}
		r.EndToEnd = append(r.EndToEnd, m)
		r.print(m)
	}
}

func (r *recorder) layer(name, unit string, v float64, n int) {
	m := metric{name, v, unit, n}
	r.PerLayer = append(r.PerLayer, m)
	r.print(m)
}

func (r *recorder) check(err error) {
	if err != nil {
		r.CheckFails = append(r.CheckFails, err.Error())
		fmt.Fprintf(r.cfg.out, "%-13s CHECK FAILED: %v\n", r.Workload, err)
	}
}

// verify runs the workload's output checks against the server's final state.
func (in *instance) verify(rec *recorder) {
	rec.check(in.w.verify(in.srv.Snapshot().Thaw(), in.acked.Load(), in.srv.Stats()))
}

// restart is bank_durable's recovery check: after the last acknowledgment and
// without closing the server, copy the WAL and then the snapshot (a
// checkpoint landing between the two copies leaves a newer snapshot beside
// an older, longer log, which recovery handles; the other order could lose
// the truncated prefix) to a fresh directory, recover a second server from
// the copy, and require acked ⊆ recovered.
func (in *instance) restart(cfg *config, rec *recorder) {
	dir, err := os.MkdirTemp(cfg.outDir, "recover-")
	if err != nil {
		rec.check(err)
		return
	}
	defer os.RemoveAll(dir)
	for _, f := range []string{"db.wal", "db.snap"} {
		if err := copyFile(filepath.Join(in.dir, f), filepath.Join(dir, f)); err != nil {
			rec.check(err)
			return
		}
	}
	began := time.Now()
	srv, err := td.NewServer(td.ServerOptions{
		SnapshotPath: filepath.Join(dir, "db.snap"),
		WALPath:      filepath.Join(dir, "db.wal"),
	})
	took := time.Since(began)
	if err != nil {
		rec.check(fmt.Errorf("restart: %w", err))
		return
	}
	defer srv.Close()
	if srv.Version() < in.maxVer.Load() {
		rec.check(fmt.Errorf("restart: recovered version %d, but version %d was acknowledged", srv.Version(), in.maxVer.Load()))
	}
	// The recovered server has acknowledged nothing and counts no commits.
	if err := in.w.verify(srv.Snapshot().Thaw(), 0, srv.Stats()); err != nil {
		rec.check(fmt.Errorf("restart: %w", err))
	}
	if cfg.layers {
		rec.layer("db.recovery_ms", "ms", ms(took), 1)
		rec.layer("db.recovery_replayed_records", "count", float64(srv.Stats().RecoveryReplayed), 1)
	}
}

// runWorkload runs one workload: set-up, the measured closed-loop phase and
// its output checks, then (cfg.layers) the ungated phases.
func runWorkload(w *workload, cfg *config) (*recorder, error) {
	rec := &recorder{cfg: cfg, Workload: w.name}
	src, err := w.program()
	if err != nil {
		return nil, err
	}

	// Set-up. An end-to-end run sets up several times and reports the median;
	// the last server built is the one measured.
	var in *instance
	var setupS []float64
	for i := 0; i < setups; i++ {
		if in != nil {
			in.close()
		}
		runtime.GC()
		var took time.Duration
		if in, took, err = setup(w, cfg, src, cfg.conns, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
		if !cfg.e2e {
			break
		}
	}
	defer func() { in.close() }()
	rec.e2e("setup_s", "s", median(setupS), len(setupS))

	// Measured phase: closed loop, tracing off, fixed op counts. Throughput is
	// measured with every connection busy, latency then with one: see
	// README.md, "Why latency is gated on one connection".
	n := cfg.scaled(w.ops)
	st0 := in.srv.Stats()
	var ms0, ms1 runtime.MemStats
	var ru0, ru1 syscall.Rusage
	runtime.ReadMemStats(&ms0)
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	ph := in.closedLoop(in.clients, n, false)
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	runtime.ReadMemStats(&ms1)
	st1 := in.srv.Stats()
	solo := in.closedLoop(in.clients[:1], cfg.scaled(w.soloOps), false)
	fmt.Fprintf(cfg.out, "%-13s one connection alone: %.0f ops/s\n", w.name, float64(len(solo.lat)-solo.failed)/solo.wall.Seconds())
	attempted := n + len(solo.lat)
	rec.Attempted, rec.Failed = attempted, ph.failed+solo.failed
	okShare := 1 - float64(ph.flawed+solo.flawed)/float64(attempted)

	win, swin := ph.windows(), solo.windows()
	pick := func(win []window, f func(window) float64) float64 {
		xs := make([]float64, len(win))
		for i, x := range win {
			xs[i] = f(x)
		}
		return median(xs)
	}
	per, sper := n/len(win), len(solo.lat)/len(swin)
	rec.e2e("throughput_ops_s", "ops/s", pick(win, func(x window) float64 { return x.tput }), len(win))
	rec.e2e("latency_p50_us", "us", pick(swin, func(x window) float64 { return x.p50 }), sper)
	rec.e2e("latency_p99_us", "us", pick(swin, func(x window) float64 { return x.p99 }), sper)
	rec.e2e("ok_share", "ratio", okShare, attempted)
	time.Sleep(quiesce)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	rec.e2e("heap_live_mb", "MB", float64(live.HeapAlloc)/(1<<20), 1)

	in.verify(rec)
	if w.durable {
		time.Sleep(quiesce)
		in.restart(cfg, rec)
	}
	if len(in.errs) > 0 {
		fmt.Fprintf(cfg.out, "%-13s failed submissions by error: %v\n", w.name, in.errs)
	}
	fmt.Fprintf(cfg.out, "%-13s conflict causes (server lifetime): %v\n", w.name, st1.ConflictCauses)
	if !cfg.layers {
		return rec, nil
	}

	// Per-layer ledger. Counts are STATS deltas over the loaded part of the
	// measured phase.
	commits := float64(max(st1.Commits-st0.Commits, 1))
	ops := float64(n)
	rec.layer("load.failed_share", "ratio", 1-okShare, attempted)
	rec.layer("load.loaded_p50_us", "us", pick(win, func(x window) float64 { return x.p50 }), per)
	rec.layer("load.loaded_p99_us", "us", pick(win, func(x window) float64 { return x.p99 }), per)
	rec.layer("load.latency_p999_us", "us", pick(win, func(x window) float64 { return x.p999 }), per)
	queries, execs := solo.byVerb(in)
	rec.layer("load.query_p50_us", "us", quantileUs(queries, 0.5), len(queries))
	rec.layer("load.exec_p50_us", "us", quantileUs(execs, 0.5), len(execs))
	rec.layer("server.conflicts_per_commit", "ratio", float64(st1.Conflicts-st0.Conflicts)/commits, int(commits))
	rec.layer("server.retries_per_op", "ratio", float64(st1.Retries-st0.Retries)/ops, n)
	rec.layer("server.giveups", "count", float64(ph.giveups+solo.giveups), attempted)
	rec.layer("server.cross_lane_share", "ratio", float64(st1.CrossShardCommits-st0.CrossShardCommits)/commits, int(commits))
	var batch float64
	fsyncs := st1.Fsyncs - st0.Fsyncs
	if fsyncs > 0 { // an in-memory server never syncs
		batch = commits / float64(fsyncs)
	}
	rec.layer("server.commit_batch_mean", "count", batch, int(fsyncs))
	lookups := float64(max(st1.MemoHits+st1.MemoMisses-st0.MemoHits-st0.MemoMisses, 1))
	rec.layer("engine.memo_hit_share", "ratio", float64(st1.MemoHits-st0.MemoHits)/lookups, int(lookups))
	rec.layer("engine.memo_invalidations_per_write", "count", float64(st1.MemoInvalidations-st0.MemoInvalidations)/commits, int(commits))
	cpu := func(ru syscall.Rusage) float64 {
		return float64(ru.Utime.Sec+ru.Stime.Sec)*1e6 + float64(ru.Utime.Usec+ru.Stime.Usec)
	}
	rec.layer("proc.cpu_us_per_op", "us", (cpu(ru1)-cpu(ru0))/ops, n)
	rec.layer("proc.allocs_per_op", "count", float64(ms1.Mallocs-ms0.Mallocs)/ops, n)
	rec.layer("proc.alloc_bytes_per_op", "B", float64(ms1.TotalAlloc-ms0.TotalAlloc)/ops, n)
	rec.layer("proc.gc_pause_ms", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, int(ms1.NumGC-ms0.NumGC))
	rec.layer("history.checkpoints", "count", float64(st1.Checkpoints-st0.Checkpoints), 1)
	if !w.durable {
		rec.layer("db.recovery_ms", "ms", 0, 0)
		rec.layer("db.recovery_replayed_records", "count", 0, 0)
	}

	// history: a foreground checkpoint of the final state, timed.
	var ckptMs []float64
	for i := 0; w.durable && i < 3; i++ {
		t := time.Now()
		if _, err := in.srv.Checkpoint(); err != nil {
			return nil, err
		}
		ckptMs = append(ckptMs, ms(time.Since(t)))
	}
	rec.layer("history.checkpoint_p50_ms", "ms", median(ckptMs), len(ckptMs))

	// server: the wire floor, and the same requests without the socket.
	var pingUs []float64
	for i := 0; i < cfg.scaled(pingCalls); i++ {
		t := time.Now()
		if err := in.clients[0].Ping(); err != nil {
			return nil, err
		}
		pingUs = append(pingUs, us(time.Since(t)))
	}
	pingP50 := median(pingUs)
	rec.layer("server.ping_rtt_p50_us", "us", pingP50, len(pingUs))
	inproc := in.srv.InProcClient()
	iph := in.closedLoop([]*td.ServerClient{inproc}, cfg.scaled(w.traceOps), false)
	inproc.Close()
	rec.layer("server.inproc_exec_p50_us", "us", quantileUs(sortedCopy(iph.lat), 0.5), len(iph.lat))

	// load: the open-loop ladder, at fixed offered rates.
	var atSLO, maxLate float64
	var offered int
	for i, label := range []string{"r50", "r80"} {
		r := in.openLoop(cfg.conns, w.rates[i], time.Duration(float64(openDur)*min(cfg.scale, 1)))
		rec.layer("load.openloop."+label+".p50_us", "us", r.p50, r.n)
		rec.layer("load.openloop."+label+".p99_us", "us", r.p99, r.n)
		maxLate, offered = max(maxLate, r.maxLate), offered+r.n
		if r.failed == 0 && r.p99 <= us(sloP99) && r.endLate <= us(sloP99) {
			atSLO = float64(w.rates[i])
		}
	}
	rec.layer("load.openloop.max_late_us", "us", maxLate, offered)
	rec.layer("load.openloop.rate_at_slo_ops_s", "ops/s", atSLO, 2)
	in.verify(rec)
	in.close() // now, not at return: the twins should not share the heap with it

	// One-connection twins on fresh servers: untraced, then traced
	// (StageSample=1 and a wide-event sink owned by the benchmark).
	spans := &spanLog{}
	untraced, _, err := oneConn(w, cfg, src, rec, nil, nil)
	if err != nil {
		return nil, err
	}
	sink := &wideSink{}
	traced, clientP50, err := oneConn(w, cfg, src, rec, sink, spans)
	if err != nil {
		return nil, err
	}
	rec.layer("obs.trace_overhead_share", "ratio", (untraced-traced)/untraced, cfg.scaled(w.traceOps))

	// The outside-layer replay, and its reconciliation with the traced run.
	rp, err := replay(w, cfg, src, rec, spans)
	if err != nil {
		return nil, err
	}
	outside := median(rp) / 1e3
	gap := math.Abs(pingP50+outside-clientP50.all) / clientP50.all
	rec.layer("server.reconcile_gap_share", "ratio", gap, len(rp))
	fmt.Fprintf(cfg.out, "%-13s reconcile: ping %.1f + outside layers %.1f vs traced client p50 %.1f us: %s\n",
		w.name, pingP50, outside, clientP50.all, okOff(gap))
	sgap := math.Abs(clientP50.stageSum-clientP50.exec) / clientP50.exec
	rec.layer("server.stage_gap_share", "ratio", sgap, clientP50.events)
	fmt.Fprintf(cfg.out, "%-13s stage clocks: sum of stage p50s %.1f vs traced client EXEC p50 %.1f us: %s (the clocks start after the frame is decoded: ping p50 is %.1f)\n",
		w.name, clientP50.stageSum, clientP50.exec, okOff(sgap), pingP50)

	path := filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl")
	if err := spans.dump(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "%-13s %d spans written to %s\n", w.name, len(spans.spans), path)
	return rec, nil
}

// tracedP50 is what the traced run hands the reconciliation, in µs.
type tracedP50 struct {
	all      float64 // client-observed p50 over every request
	exec     float64 // over the EXECs (the requests that carry stage clocks)
	stageSum float64 // Σ of the eight stage p50s
	events   int
}

// oneConn builds a fresh server, runs traceOps requests on one connection and
// returns the throughput. With a sink the server samples every transaction's
// stage clock into it; the run then also records spans and the engine and
// stage metrics that are exact with one connection.
func oneConn(w *workload, cfg *config, src string, rec *recorder, sink *wideSink, spans *spanLog) (float64, tracedP50, error) {
	var p tracedP50
	in, _, err := setup(w, cfg, src, 1, sink)
	if err != nil {
		return 0, p, err
	}
	defer in.close()
	if sink != nil {
		// The session settles a sampled transaction before it reads the next
		// request, so after this round trip the warm-up's events are all in.
		if err := in.clients[0].Ping(); err != nil {
			return 0, p, err
		}
		sink.take()
	}
	n := cfg.scaled(w.traceOps)
	st0 := in.srv.Stats()
	ph := in.closedLoop(in.clients, n, sink != nil)
	st1 := in.srv.Stats()
	tput := float64(n-ph.failed) / ph.wall.Seconds()
	in.verify(rec)
	if ph.failed > 0 {
		rec.check(fmt.Errorf("one-connection run: %d ops failed: %v", ph.failed, in.errs))
	}
	if sink == nil {
		// engine: with one connection nothing is retried, so these are the
		// work of exactly n proofs.
		rec.layer("engine.steps_per_op", "count", float64(st1.EngineSteps-st0.EngineSteps)/float64(n), n)
		rec.layer("engine.unifications_per_op", "count", float64(st1.EngineUnifications-st0.EngineUnifications)/float64(n), n)
		rec.layer("engine.plan_hits_per_op", "count", float64(st1.PlanHits-st0.PlanHits)/float64(n), n)
		return tput, p, nil
	}
	if err := in.clients[0].Ping(); err != nil {
		return 0, p, err
	}
	events := sink.take()
	var execLat []uint32
	stage := map[string][]float64{}
	e := 0
	for j, l := range ph.lat {
		o := w.gen(cfg.seed, ph.first+int64(j))
		var ev *td.WideEvent
		if !o.query && l != failedNs {
			if e >= len(events) || events[e].Goal != o.goal {
				return 0, p, fmt.Errorf("traced run: wide event %d does not belong to request %q", e, o.goal)
			}
			ev = &events[e]
			e++
			execLat = append(execLat, l)
			for _, s := range stageNames {
				stage[s] = append(stage[s], float64(ev.StageUs[s]))
			}
		}
		spans.addRequest(ph.first+int64(j), int64(ph.sent[j]), int64(ph.sent[j])+int64(l), ev)
	}
	p.all = quantileUs(sortedCopy(ph.lat), 0.5)
	p.exec = quantileUs(sortedCopy(execLat), 0.5)
	p.events = e
	for _, s := range stageNames {
		v := median(stage[s])
		p.stageSum += v
		rec.layer("server.stage."+s+"_p50_us", "us", v, e)
	}
	return tput, p, nil
}

func okOff(gap float64) string {
	if gap <= gapLimit {
		return fmt.Sprintf("gap %.3f ok", gap)
	}
	return fmt.Sprintf("gap %.3f off", gap)
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var name string
	fs.StringVar(&name, "workload", "", "run one workload (default: all four)")
	fs.StringVar(&name, "w", "", "short for -workload")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed generates the same requests")
	seconds := fs.Float64("seconds", runSeconds, "run length; op counts are fixed at ops-per-second × this")
	trace := fs.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics (runs the ungated phases); default both")
	procs := fs.Int("procs", 0, "GOMAXPROCS (0: leave the default, which is what the record uses)")
	outDir := fs.String("out", "bench/out", "directory for trace dumps and durable scratch stores")
	record := fs.String("json", "", "also write the full record (every metric with its sample count) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}
	cfg := &config{
		seed: *seed, scale: *seconds / runSeconds,
		e2e: *trace != 1, layers: *trace != 0,
		conns: min(loadConns, runtime.NumCPU()), outDir: *outDir, out: stdout,
	}
	todo := workloads
	if name != "" {
		w := workloadByName(name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: no workload %q\n", name)
			return 2
		}
		todo = []*workload{w}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# %s %s/%s nproc=%d GOMAXPROCS=%d conns=%d seed=%d seconds=%g\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.conns, cfg.seed, *seconds)

	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	var recs []*recorder
	for _, w := range todo {
		rec, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		recs = append(recs, rec)
		line.Attempted += rec.Attempted
		line.Failed += rec.Failed
		line.Correct = line.Correct && len(rec.CheckFails) == 0
		prefix := ""
		if len(todo) > 1 {
			prefix = w.name + "."
		}
		chosen := rec.PerLayer
		if *trace != 1 {
			chosen = rec.EndToEnd
		}
		for _, m := range chosen {
			line.Metrics[prefix+m.Name] = metricValue{m.Value, m.Unit}
		}
	}
	if *record != "" {
		if err := writeRecord(*record, cfg, *seconds, recs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	out, _ := json.Marshal(line)
	fmt.Fprintln(stdout, string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

// writeRecord writes the full record of a run. It claims nothing: a record is
// a baseline, and its last key says so.
func writeRecord(path string, cfg *config, seconds float64, recs []*recorder) error {
	data, err := json.MarshalIndent(struct {
		Machine   map[string]any `json:"machine"`
		Workloads []*recorder    `json:"workloads"`
		Claim     *string        `json:"claim"`
	}{
		Machine: map[string]any{
			"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"conns": cfg.conns, "seed": cfg.seed, "seconds": seconds,
		},
		Workloads: recs,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}
