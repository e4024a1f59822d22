package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/term"
)

const (
	replayOps  = 5000    // generated requests replayed against each layer
	probeCalls = 200_000 // DB.Contains / DB.Scan calls timed as one batch
	// serverMaxSteps is ServerOptions.MaxSteps' default: the replay engine
	// is built as a session builds its own.
	serverMaxSteps = 5_000_000
)

// replay measures the layers from outside: it times calls into their public
// functions on the first replayOps requests the measured phase generates for
// this seed, single-threaded, against a db.DB built from the same facts. For
// the reconciliation it returns, per replayed request, the summed time in ns
// of the outside-layer calls that request needs: parse + prove, plus apply,
// WAL append and fsync where it writes.
func replay(w *workload, cfg *config, src string, rec *recorder, spans *spanLog) ([]float64, error) {
	// parser / analysis: program load, as Server.New does it.
	var prog *ast.Program
	var parseMs, planMs []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		p, err := parser.Parse(src)
		if err != nil {
			return nil, err
		}
		parseMs = append(parseMs, ms(time.Since(t)))
		t = time.Now()
		if err := analysis.Vet(p).Err(); err != nil {
			return nil, err
		}
		analysis.Plan(p)
		planMs = append(planMs, ms(time.Since(t)))
		prog = p
	}
	rec.layer("parser.parse_program_ms", "ms", median(parseMs), len(parseMs))
	rec.layer("analysis.vet_plan_ms", "ms", median(planMs), len(planMs))

	n := cfg.scaled(replayOps)
	first := int64(cfg.scaled(warmOps)) // the measured phase starts after the warm-up
	ops := make([]op, n)
	for i := range ops {
		ops[i] = w.gen(cfg.seed, first+int64(i))
	}
	outside := make([]float64, n)
	clock := time.Now()
	// note closes the interval that began at start: it records the span and,
	// when the call is on this workload's request path, adds it to the
	// request's outside sum. It returns the interval in µs.
	note := func(name string, i int, start time.Duration, onPath bool) float64 {
		end := time.Since(clock)
		spans.add(0, first+int64(i), name, int64(start), int64(end))
		if onPath {
			outside[i] += float64(end - start)
		}
		return us(end - start)
	}

	// parser: goal text → AST.
	goals := make([]ast.Goal, n)
	parseUs := make([]float64, 0, n)
	for i, o := range ops {
		start := time.Since(clock)
		g, _, err := parser.ParseGoal(o.goal, prog.VarHigh)
		parseUs = append(parseUs, note("replay.parser.parse_goal", i, start, true))
		if err != nil {
			return nil, err
		}
		goals[i] = g
	}
	rec.layer("parser.parse_goal_p50_us", "us", median(parseUs), n)

	// engine: proof search, engine built as the session builds it.
	d, err := db.FromFacts(prog.Facts)
	if err != nil {
		return nil, err
	}
	eopts := engine.Options{LoopCheck: true, Table: true, MaxSteps: serverMaxSteps, Plan: true}
	if w.table != "" {
		eopts.Memo = &engine.MemoOptions{Mode: w.table, Store: engine.NewMemoStore(0)}
	}
	eng := engine.New(prog, eopts)
	deltas := make([][]db.Op, n)
	proveUs := make([]float64, 0, n)
	spans.grow(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, o := range ops {
		start := time.Since(clock)
		if o.query {
			sols := 0
			_, err = eng.Enumerate(goals[i], d, 0, func(map[string]term.Term) bool { sols++; return true })
			if err == nil && sols != o.expect {
				err = fmt.Errorf("replay: %s gave %d solutions, the truth is %d", o.goal, sols, o.expect)
			}
		} else {
			var r *engine.Result
			r, deltas[i], err = eng.ProveDelta(goals[i], d)
			if err == nil && !r.Success {
				err = fmt.Errorf("replay: %s has no proof", o.goal)
			}
			d.ResetTrail()
		}
		proveUs = append(proveUs, note("replay.engine.prove", i, start, true))
		if err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&after)
	rec.layer("engine.prove_p50_us", "us", median(proveUs), n)
	rec.layer("engine.prove_p99_us", "us", quantile(proveUs, 0.99), n)
	rec.layer("engine.allocs_per_op", "count", float64(after.Mallocs-before.Mallocs)/float64(n), n)

	// db: apply the write sets to a second replica.
	replica, err := db.FromFacts(prog.Facts)
	if err != nil {
		return nil, err
	}
	var applyUs []float64
	for i, delta := range deltas {
		if len(delta) == 0 {
			continue
		}
		start := time.Since(clock)
		replica.Apply(delta)
		replica.ResetTrail()
		applyUs = append(applyUs, note("replay.db.apply", i, start, true))
	}
	rec.layer("db.apply_p50_us", "us", median(applyUs), len(applyUs))

	// db: point probes on ground keys, and scans with the first argument bound.
	rows := d.Tuples(w.probe.pred, w.probe.arity)
	if len(rows) == 0 {
		return nil, fmt.Errorf("replay: %s/%d is empty", w.probe.pred, w.probe.arity)
	}
	calls := cfg.scaled(probeCalls)
	hits := 0
	t := time.Now()
	for i := 0; i < calls; i++ {
		if d.Contains(w.probe.pred, rows[mix(cfg.seed, int64(i))%uint64(len(rows))]) {
			hits++
		}
	}
	rec.layer("db.probe_ns", "ns", float64(time.Since(t))/float64(calls), calls)
	srows := d.Tuples(w.scan.pred, w.scan.arity)
	if len(srows) == 0 {
		return nil, fmt.Errorf("replay: %s/%d is empty", w.scan.pred, w.scan.arity)
	}
	args := make([]term.Term, w.scan.arity)
	for k := 1; k < len(args); k++ {
		args[k] = term.NewVar("V", int64(k))
	}
	env := term.NewEnv()
	t = time.Now()
	for i := 0; i < calls; i++ {
		args[0] = srows[mix(cfg.seed, int64(i))%uint64(len(srows))][0]
		d.Scan(w.scan.pred, args, env, func() bool { hits++; return true })
	}
	rec.layer("db.scan_first_arg_ns", "ns", float64(time.Since(t))/float64(calls), calls)
	if hits < 2*calls {
		return nil, fmt.Errorf("replay: %d probes and scans found only %d tuples", 2*calls, hits)
	}

	// db: WAL append then fsync, one commit at a time, on a scratch store
	// detached from its DB as the server's is (ApplyCommit is a pure append).
	dir, err := os.MkdirTemp(cfg.outDir, "scratch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := db.OpenStore(filepath.Join(dir, "db.snap"), filepath.Join(dir, "db.wal"))
	if err != nil {
		return nil, err
	}
	defer st.Close()
	st.DetachDB()
	var appendUs, fsyncUs []float64
	walBefore := st.WALSize()
	for i, delta := range deltas {
		if len(delta) == 0 {
			continue
		}
		// An in-memory server never logs or syncs: the times are reported,
		// but they are no part of that workload's request path.
		start := time.Since(clock)
		_, err := st.ApplyCommit(delta, st.LastLSN()+1)
		appendUs = append(appendUs, note("replay.db.wal_append", i, start, w.durable))
		if err != nil {
			return nil, err
		}
		start = time.Since(clock)
		_, err = st.Sync()
		fsyncUs = append(fsyncUs, note("replay.db.fsync", i, start, w.durable))
		if err != nil {
			return nil, err
		}
	}
	rec.layer("db.wal_append_p50_us", "us", median(appendUs), len(appendUs))
	rec.layer("db.fsync_p50_us", "us", median(fsyncUs), len(fsyncUs))
	rec.layer("db.fsync_p99_us", "us", quantile(fsyncUs, 0.99), len(fsyncUs))
	rec.layer("db.wal_bytes_per_commit", "B", float64(st.WALSize()-walBefore)/float64(max(len(appendUs), 1)), len(appendUs))
	return outside, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
