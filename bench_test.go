package td_test

// In-process benchmarks at fixed sizes: the prover on the bank transfer and
// the genome-lab workflow (plain, traced, planned, tabled), the simulator,
// the RE-hardness and Datalog constructions, parsing, the database's
// insert/delete path, the transaction server's throughput (in memory and
// durable, contended and disjoint) and recovery. `make bench` records the
// hot-path subset as BENCH_PR<n>.json through cmd/benchjson, and `make
// bench-compare` gates it against the previous record; the paper's
// experiments are not timed here — `go run ./cmd/tdbench -only E<n>`
// regenerates one, and TestAllExperimentsPassQuick runs them all on every
// `go test`.
//
// Run everything:   go test -bench=. -benchmem
// One benchmark:    go test -bench=BenchmarkProverLabFlow -benchmem

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	td "repro"
	"repro/internal/ast"
	"repro/internal/datalog"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/sim"
	"repro/internal/term"
	"repro/internal/workflow"
)

const benchBank = `
	balance(A, B) :- account(A, B).
	change_balance(A, B1, B2) :- del.account(A, B1), ins.account(A, B2).
	withdraw(Amt, A) :- balance(A, B), B >= Amt, sub(B, Amt, C), change_balance(A, B, C).
	deposit(Amt, A) :- balance(A, B), add(B, Amt, C), change_balance(A, B, C).
	transfer(Amt, A, B) :- withdraw(Amt, A), deposit(Amt, B).
	account(a, 1000000).
	account(b, 1000000).
`

// BenchmarkProverTransfer times one committed money transfer end to end.
func BenchmarkProverTransfer(b *testing.B) {
	prog := parser.MustParse(benchBank)
	g := parser.MustParseGoal("transfer(1, a, b)", prog.VarHigh)
	eng := engine.NewDefault(prog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := db.FromFacts(prog.Facts)
		res, err := eng.Prove(g, d)
		if err != nil || !res.Success {
			b.Fatal(err, res)
		}
	}
}

// benchLabProgram is the lab_flow program of BENCHMARK.json: the genome-lab
// mapping workflow over a pool of seven agents.
func benchLabProgram(b *testing.B) string {
	rules, err := workflow.Compile(workflow.GenomeSpec())
	if err != nil {
		b.Fatal(err)
	}
	return rules + workflow.AgentFacts(map[string]int{
		"technician": 2, "thermocycler": 1, "gel_rig": 1, "camera": 1, "analyst": 2,
	})
}

// BenchmarkProverLabFlow times the proof of one whole genome-laboratory
// mapping workflow — iso(wf_mapping(N)) for a fresh item N, the lab_flow
// transaction of BENCHMARK.json — on an engine built as a server session
// builds it (loop check, failure table, plan). Each iteration keeps its
// done_* facts, as the server's replica does.
func BenchmarkProverLabFlow(b *testing.B) {
	prog := parser.MustParse(benchLabProgram(b))
	eng := engine.New(prog, engine.Options{LoopCheck: true, Table: true, Plan: true})
	d, _ := db.FromFacts(prog.Facts)
	goals := make([]td.Goal, b.N)
	for i := range goals {
		goals[i] = parser.MustParseGoal(fmt.Sprintf("iso(wf_mapping(%d))", i), prog.VarHigh)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, g := range goals {
		res, _, err := eng.ProveDelta(g, d)
		if err != nil || !res.Success {
			b.Fatal(err, res)
		}
		d.ResetTrail()
	}
}

// BenchmarkProverTransferTraced is BenchmarkProverTransfer with structured
// execution tracing enabled and span trees flowing into a ring sink — the
// cost of full observability on the engine's hot path. Compare against
// BenchmarkProverTransfer (tracing off) for the enabled-vs-disabled delta;
// BENCH_PR3.json records both.
func BenchmarkProverTransferTraced(b *testing.B) {
	prog := parser.MustParse(benchBank)
	g := parser.MustParseGoal("transfer(1, a, b)", prog.VarHigh)
	opts := engine.DefaultOptions()
	opts.Trace = true
	opts.SpanSink = obs.NewRingSink(16)
	eng := engine.New(prog, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := db.FromFacts(prog.Facts)
		res, err := eng.Prove(g, d)
		if err != nil || !res.Success {
			b.Fatal(err, res)
		}
	}
}

// BenchmarkProverAbort times a failing (rolled back) transfer.
func BenchmarkProverAbort(b *testing.B) {
	prog := parser.MustParse(benchBank)
	g := parser.MustParseGoal("transfer(99999999, a, b)", prog.VarHigh)
	eng := engine.NewDefault(prog)
	d, _ := db.FromFacts(prog.Facts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Prove(g, d)
		if err != nil || res.Success {
			b.Fatal(err, res)
		}
	}
}

// BenchmarkProverPlanned times the laboratory analyze workload — a ground
// hot-sample query over a cold sample, the worst case that exhausts the
// search under any literal order — with planning off (textual order: full
// reading scan per proof attempt) and on (tdplan hoists the first-arg-
// indexed sample_reading lookup). Same program, same goal, same (empty)
// answer; only the literal order differs. BENCH_PR9.json records both and
// make bench-compare gates the planned/textual ratio.
func BenchmarkProverPlanned(b *testing.B) {
	cfg := workflow.DefaultAnalyze(64)
	prog := parser.MustParse(workflow.AnalyzeSource(cfg))
	g := parser.MustParseGoal(fmt.Sprintf("hot(%s)", workflow.ColdSample(cfg)), prog.VarHigh)
	run := func(b *testing.B, eng *engine.Engine) {
		b.Helper()
		d, _ := db.FromFacts(prog.Facts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.Prove(g, d)
			if err != nil || res.Success {
				b.Fatal(err, res)
			}
		}
	}
	b.Run("textual", func(b *testing.B) {
		run(b, engine.NewDefault(prog))
	})
	b.Run("planned", func(b *testing.B) {
		opts := engine.DefaultOptions()
		opts.Plan = true
		run(b, engine.New(prog, opts))
	})
}

// BenchmarkProverTabled times the repeated-analyze workload — the same
// ground hot-sample query proved over and over against an unchanged
// database, the access pattern the paper's analyze stage produces
// ("queried by analysis programs, but never deleted or altered") — with
// tabling off and on. The off variant re-exhausts the search every call;
// the tabled variant fills the memo table once and replays the cached
// answer multiset (here: empty — cold sample) on every later call, so its
// steady state is a key build plus a fingerprint check. BENCH_PR10.json
// records both; the acceptance gate is a >=10x off/tabled ratio, with the
// off variant itself staying within noise of PR 9's textual baseline.
func BenchmarkProverTabled(b *testing.B) {
	cfg := workflow.DefaultAnalyze(64)
	prog := parser.MustParse(workflow.AnalyzeSource(cfg))
	g := parser.MustParseGoal(fmt.Sprintf("hot(%s)", workflow.ColdSample(cfg)), prog.VarHigh)
	run := func(b *testing.B, eng *engine.Engine) {
		b.Helper()
		d, _ := db.FromFacts(prog.Facts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.Prove(g, d)
			if err != nil || res.Success {
				b.Fatal(err, res)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, engine.NewDefault(prog))
	})
	b.Run("tabled", func(b *testing.B) {
		opts := engine.DefaultOptions()
		opts.Memo = &engine.MemoOptions{Mode: "all"}
		run(b, engine.New(prog, opts))
	})
}

// BenchmarkProverTabledChain is the machine-encoding variant of
// BenchmarkProverTabled: repeated reachability over a read-only 48-node
// edge chain (the Theorem 4.x encodings reduced to their recursive
// skeleton, with no update literals so reach/2 stays tabling-eligible).
// Untabled, every call re-walks the chain; tabled, the first call caches
// the single ground answer and the rest replay it.
func BenchmarkProverTabledChain(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("reach(X, Y) :- edge(X, Y).\nreach(X, Z) :- edge(X, Y), reach(Y, Z).\n")
	const chain = 48
	for i := 0; i < chain; i++ {
		fmt.Fprintf(&sb, "edge(n%d, n%d).\n", i, i+1)
	}
	prog := parser.MustParse(sb.String())
	g := parser.MustParseGoal(fmt.Sprintf("reach(n0, n%d)", chain), prog.VarHigh)
	run := func(b *testing.B, eng *engine.Engine) {
		b.Helper()
		d, _ := db.FromFacts(prog.Facts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.Prove(g, d)
			if err != nil || !res.Success {
				b.Fatal(err, res)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, engine.NewDefault(prog))
	})
	b.Run("tabled", func(b *testing.B) {
		opts := engine.DefaultOptions()
		opts.Memo = &engine.MemoOptions{Mode: "all"}
		run(b, engine.New(prog, opts))
	})
}

// BenchmarkProverTabledUnderWrites is the analyze stage with the lab still
// running: hot(sK) round-robin over 1 024 samples, every answer tabled,
// and after every tenth call one transaction that records a reading under
// a fresh id — a tuple no hot(sK) proof ever read. One op is one call plus
// its tenth of a write. The tables are warm when the clock starts, so
// hit_share is the share of timed calls answered from them: what survives
// the writes.
func BenchmarkProverTabledUnderWrites(b *testing.B) {
	const samples = 1024
	cfg := workflow.DefaultAnalyze(samples)
	prog := parser.MustParse(workflow.AnalyzeSource(cfg))
	opts := engine.DefaultOptions()
	opts.Plan = true
	opts.Memo = &engine.MemoOptions{Mode: "all"}
	eng := engine.New(prog, opts)
	d, _ := db.FromFacts(prog.Facts)
	calls := make([]ast.Goal, samples)
	for k := range calls {
		calls[k] = parser.MustParseGoal(fmt.Sprintf("hot(s%d)", k+1), prog.VarHigh)
		if _, err := eng.Prove(calls[k], d); err != nil {
			b.Fatal(err)
		}
	}
	writes := make([]ast.Goal, b.N/10+1)
	for i := range writes {
		n := 1_000_000 + i
		writes[i] = parser.MustParseGoal(fmt.Sprintf("ins.sample_reading(%d, %d), ins.reading(%d, %d)", n, n, n, n%900), prog.VarHigh)
	}
	warm := *eng.MemoStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % samples
		res, err := eng.Prove(calls[k], d)
		if err != nil || res.Success != ((k+1)%cfg.HotEvery == 0) {
			b.Fatal(err, res)
		}
		if i%10 == 9 {
			if res, err := eng.Prove(writes[i/10], d); err != nil || !res.Success {
				b.Fatal(err, res)
			}
		}
	}
	b.StopTimer()
	st := eng.MemoStats()
	b.ReportMetric(float64(st.Hits-warm.Hits)/float64(b.N), "hit_share")
}

// BenchmarkSimLab times the full genome laboratory simulation (8 samples).
func BenchmarkSimLab(b *testing.B) {
	cfg := workflow.DefaultLab(8)
	src, goal, err := workflow.LabSource(cfg)
	if err != nil {
		b.Fatal(err)
	}
	prog := parser.MustParse(src)
	g := parser.MustParseGoal(goal, prog.VarHigh)
	d, _ := db.FromFacts(prog.Facts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.New(prog, sim.Options{Timeout: time.Minute, Seed: int64(i)}).Run(g, d)
		if !res.Completed {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkTwoStackCopy times the Theorem 4.4 construction moving 8
// symbols between stacks.
func BenchmarkTwoStackCopy(b *testing.B) {
	src, goal, err := machine.Source(machine.Copy(), machine.ABWord(8))
	if err != nil {
		b.Fatal(err)
	}
	prog := parser.MustParse(src)
	g := parser.MustParseGoal(goal, prog.VarHigh)
	eng := engine.NewDefault(prog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := db.FromFacts(prog.Facts)
		res, err := eng.Prove(g, d)
		if err != nil || !res.Success {
			b.Fatal(err, res)
		}
	}
}

// BenchmarkQBFAlternating3 times the sequential-TD alternation workload at
// k = 3 quantifier blocks.
func BenchmarkQBFAlternating3(b *testing.B) {
	q := machine.AlternatingQBF(3)
	facts, err := machine.QBFFacts(q)
	if err != nil {
		b.Fatal(err)
	}
	prog := parser.MustParse(machine.QBFRules + facts)
	g := parser.MustParseGoal(machine.QBFGoal, prog.VarHigh)
	eng := engine.NewDefault(prog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := db.FromFacts(prog.Facts)
		res, err := eng.Prove(g, d)
		if err != nil || !res.Success {
			b.Fatal(err, res)
		}
	}
}

// BenchmarkDatalogTC60 times the semi-naive baseline on a 60-edge chain.
func BenchmarkDatalogTC60(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&sb, "edge(n%d, n%d).\n", i, i+1)
	}
	prog := parser.MustParse(sb.String())
	dl, err := datalog.FromTD(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := datalog.Eval(dl, datalog.SemiNaive); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParse times the parser on the generated laboratory program.
func BenchmarkParse(b *testing.B) {
	src, _, err := workflow.LabSource(workflow.DefaultLab(20))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := td.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDBInsertDelete times raw tuple churn with the undo log.
func BenchmarkDBInsertDelete(b *testing.B) {
	d := db.New()
	row := []td.Term{td.Sym("k"), td.Int(0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row[1] = td.Int(int64(i % 1000))
		d.Insert("p", row)
		d.Delete("p", row)
		if i%1000 == 999 {
			d.ResetTrail()
		}
	}
}

// BenchmarkDBClone times Clone of a keyed table: 16 384 rows p(i, i), each
// alone in its first-argument bucket. B/op is what a copy of the table
// costs: the copy shares the stored rows and each bucket's row slice, and
// builds its own row map, index and bucket headers.
func BenchmarkDBClone(b *testing.B) {
	d := db.New()
	row := make([]td.Term, 2)
	for i := 0; i < 16384; i++ {
		row[0], row[1] = td.Int(int64(i)), td.Int(int64(i))
		d.Insert("p", row)
	}
	d.ResetTrail()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Clone()
	}
}

// BenchmarkDBBucketChurn times one insert, one first-solution probe and one
// delete within a first-argument bucket of n rows. The insert lands mid
// bucket, so it moves half the bucket's row pointers; the probe hands the
// bucket out, so the delete copies it. Per-op cost grows with n by that
// copy and move alone: no sort, no per-bucket map.
func BenchmarkDBBucketChurn(b *testing.B) {
	for _, n := range []int{1, 64, 4096} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			d := db.New()
			k := td.Sym("k")
			for i := 0; i < n; i++ {
				d.Insert("p", []td.Term{k, td.Int(int64(2 * i))})
			}
			d.ResetTrail()
			mid := []td.Term{k, td.Int(int64(2*(n/2) + 1))} // odd: not stored
			env := term.NewEnv()
			probe := []td.Term{k, term.NewVar("X", 0)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Insert("p", mid)
				mark := env.Mark()
				d.Scan("p", probe, env, func() bool { return false })
				env.Undo(mark)
				d.Delete("p", mid)
				d.ResetTrail()
			}
		})
	}
}

// BenchmarkServerThroughput drives the transaction service end to end over
// the in-process transport: n concurrent clients each committing random
// iso(transfer(...)) transactions against a small, contended bank. It
// reports commits/sec and the conflict rate (validation losses per commit)
// alongside the usual ns/op.
func BenchmarkServerThroughput(b *testing.B) {
	benchServerThroughput(b, benchBankAccounts, func(b *testing.B) td.ServerOptions {
		return td.ServerOptions{}
	})
}

// BenchmarkServerThroughputTraced is BenchmarkServerThroughput with
// server-side tracing forced on and every transaction's span tree emitted
// to a ring sink — the full-observability cost of the service path.
func BenchmarkServerThroughputTraced(b *testing.B) {
	benchServerThroughput(b, benchBankAccounts, func(b *testing.B) td.ServerOptions {
		return td.ServerOptions{Trace: true, TraceSink: obs.NewRingSink(64)}
	})
}

// BenchmarkServerThroughputDurable is BenchmarkServerThroughput with a real
// snapshot + WAL and an fsync per acknowledged commit — the configuration
// the group-commit pipeline exists for. Each sub-benchmark gets fresh store
// files. The fsync floor dominates ns/op here; the number to watch is
// commits/sec scaling with the client count.
func BenchmarkServerThroughputDurable(b *testing.B) {
	benchServerThroughput(b, benchBankAccounts, func(b *testing.B) td.ServerOptions {
		dir := b.TempDir()
		return td.ServerOptions{
			SnapshotPath: filepath.Join(dir, "td.snap"),
			WALPath:      filepath.Join(dir, "td.wal"),
		}
	})
}

// BenchmarkServerThroughputDurableSampled is BenchmarkServerThroughputDurable
// with stage-level latency attribution sampling 1 transaction in 64 — the
// recommended production setting. The acceptance gate for PR 8: its 8-client
// throughput must stay within 5% of the unsampled durable variant.
func BenchmarkServerThroughputDurableSampled(b *testing.B) {
	benchServerThroughput(b, benchBankAccounts, func(b *testing.B) td.ServerOptions {
		dir := b.TempDir()
		return td.ServerOptions{
			SnapshotPath: filepath.Join(dir, "td.snap"),
			WALPath:      filepath.Join(dir, "td.wal"),
			StageSample:  64,
		}
	})
}

const benchBankAccounts = 8

// benchBankProgram builds the bank rulebase with n seed accounts.
func benchBankProgram(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "account(acct%d, 100).\n", i)
	}
	sb.WriteString(`
withdraw(Amt, A) :- account(A, B), B >= Amt, del.account(A, B),
                    sub(B, Amt, C), ins.account(A, C).
deposit(Amt, A)  :- account(A, B), del.account(A, B),
                    add(B, Amt, C), ins.account(A, C).
transfer(Amt, A, B) :- withdraw(Amt, A), deposit(Amt, B).
`)
	return sb.String()
}

// BenchmarkServerThroughputDisjoint is the commit path's best case: every
// client hammers a private account pair, so no commit ever conflicts and
// what is left is the cost of the commit lock and the replica catch-up.
// Compare against BenchmarkServerThroughputContended (shared accounts).
func BenchmarkServerThroughputDisjoint(b *testing.B) {
	benchServerThroughputDisjoint(b, func(b *testing.B) td.ServerOptions {
		return td.ServerOptions{}
	})
}

// BenchmarkServerThroughputDisjointDurable adds a real snapshot + WAL and
// an fsync per acknowledged commit: this measures how well conflict-free
// committers keep the fsync batches full.
func BenchmarkServerThroughputDisjointDurable(b *testing.B) {
	benchServerThroughputDisjoint(b, func(b *testing.B) td.ServerOptions {
		dir := b.TempDir()
		return td.ServerOptions{
			SnapshotPath: filepath.Join(dir, "td.snap"),
			WALPath:      filepath.Join(dir, "td.wal"),
		}
	})
}

// BenchmarkServerThroughputContended is BenchmarkServerThroughput (every
// client draws from the same 8 accounts) under the name the BENCH_PR*.json
// records pair with Disjoint, so section geomeans keep comparing the same
// benchmarks across records.
func BenchmarkServerThroughputContended(b *testing.B) { BenchmarkServerThroughput(b) }

// BenchmarkServerThroughputContendedDurable is the contended workload with
// per-commit durability, likewise kept for the records.
func BenchmarkServerThroughputContendedDurable(b *testing.B) { BenchmarkServerThroughputDurable(b) }

func benchServerThroughputDisjoint(b *testing.B, mkOpts func(b *testing.B) td.ServerOptions) {
	const maxClients = 8
	program := benchBankProgram(2 * maxClients) // a private pair per client
	for _, clients := range []int{1, 4, maxClients} {
		b.Run(fmt.Sprintf("clients%d", clients), func(b *testing.B) {
			opts := mkOpts(b)
			opts.Program = program
			srv, err := td.NewServer(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()

			perClient := (b.N + clients - 1) / clients
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			start := time.Now()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					cl := srv.InProcClient()
					defer cl.Close()
					for i := 0; i < perClient; i++ {
						// Alternate direction so the pair's balances never drain.
						from, to := 2*c, 2*c+1
						if i%2 == 1 {
							from, to = to, from
						}
						goal := fmt.Sprintf("iso(transfer(1, acct%d, acct%d))", from, to)
						if _, err := cl.Exec(goal); err != nil && !td.IsNoProof(err) && !td.IsConflict(err) {
							errs <- err
							return
						}
					}
				}(c)
			}
			wg.Wait()
			elapsed := time.Since(start)
			close(errs)
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
			st, err := srv.InProcClient().Stats()
			if err != nil {
				b.Fatal(err)
			}
			if st.Commits > 0 {
				b.ReportMetric(float64(st.Commits)/elapsed.Seconds(), "commits/sec")
				b.ReportMetric(float64(st.Conflicts)/float64(st.Commits), "conflicts/commit")
			}
		})
	}
}

func benchServerThroughput(b *testing.B, accounts int, mkOpts func(b *testing.B) td.ServerOptions) {
	program := benchBankProgram(accounts)
	for _, clients := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("clients%d", clients), func(b *testing.B) {
			opts := mkOpts(b)
			opts.Program = program
			srv, err := td.NewServer(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()

			perClient := (b.N + clients - 1) / clients
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			start := time.Now()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					cl := srv.InProcClient()
					defer cl.Close()
					for i := 0; i < perClient; i++ {
						from := (c + i) % accounts
						to := (from + 1 + i%(accounts-1)) % accounts
						goal := fmt.Sprintf("iso(transfer(1, acct%d, acct%d))", from, to)
						if _, err := cl.Exec(goal); err != nil && !td.IsNoProof(err) && !td.IsConflict(err) {
							errs <- err
							return
						}
					}
				}(c)
			}
			wg.Wait()
			elapsed := time.Since(start)
			close(errs)
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
			st, err := srv.InProcClient().Stats()
			if err != nil {
				b.Fatal(err)
			}
			if st.Commits > 0 {
				b.ReportMetric(float64(st.Commits)/elapsed.Seconds(), "commits/sec")
				b.ReportMetric(float64(st.Conflicts)/float64(st.Commits), "conflicts/commit")
			}
		})
	}
}

// BenchmarkServerLabFlow is the server-level twin of BenchmarkProverLabFlow
// and the in-process twin of BENCHMARK.json's lab_flow workload: 1 and 2
// clients each committing iso(wf_mapping(N)) for fresh items N over the one
// shared agent pool. Every instance takes and returns every agent class, so
// conflicts/commit is the number to watch beside ns/op: it is what the
// commit path makes of transactions whose net effects are disjoint.
// giveups/op counts instances refused after MaxRetries lost rounds (two
// in-process clients starved each other that way when commits carried the
// raw undo trail).
func BenchmarkServerLabFlow(b *testing.B) {
	program := benchLabProgram(b)
	for _, clients := range []int{1, 2} {
		b.Run(fmt.Sprintf("clients%d", clients), func(b *testing.B) {
			srv, err := td.NewServer(td.ServerOptions{Program: program})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			perClient := (b.N + clients - 1) / clients
			var wg sync.WaitGroup
			var giveups atomic.Int64
			errs := make(chan error, clients)
			b.ReportAllocs()
			b.ResetTimer()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					cl := srv.InProcClient()
					defer cl.Close()
					for i := 0; i < perClient; i++ {
						_, err := cl.Exec(fmt.Sprintf("iso(wf_mapping(%d))", c*perClient+i))
						if td.IsConflict(err) {
							giveups.Add(1)
						} else if err != nil {
							errs <- err
							return
						}
					}
				}(c)
			}
			wg.Wait()
			b.StopTimer()
			close(errs)
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
			st := srv.Stats()
			if st.Commits+giveups.Load() != int64(clients*perClient) || st.Commits == 0 {
				b.Fatalf("%d commits and %d give-ups for %d instances", st.Commits, giveups.Load(), clients*perClient)
			}
			b.ReportMetric(float64(st.Conflicts)/float64(st.Commits), "conflicts/commit")
			b.ReportMetric(float64(giveups.Load())/float64(clients*perClient), "giveups/op")
		})
	}
}

// BenchmarkRecovery measures cold-start recovery time as a function of
// history length, with and without an incremental checkpoint near the
// tail. The workload churns a fixed-size live state (each commit deletes
// the oldest fact and inserts a new one), so the snapshot stays small and
// constant while the WAL history grows. Without a checkpoint, boot replays
// the whole history and the time grows linearly; with one, replay is the
// constant ~100-commit suffix and the time stays flat no matter how much
// history precedes it — the bounded recovery the checkpoint subsystem
// exists for. The "replayed" metric is the op-record count recovery
// actually applied.
func BenchmarkRecovery(b *testing.B) {
	const live = 100   // live facts, fixed across history sizes
	const suffix = 100 // commits past the checkpoint, fixed across sizes
	for _, history := range []int{1000, 5000, 20000} {
		for _, ckpt := range []bool{false, true} {
			name := fmt.Sprintf("history%d/nockpt", history)
			if ckpt {
				name = fmt.Sprintf("history%d/ckpt", history)
			}
			b.Run(name, func(b *testing.B) {
				dir := b.TempDir()
				snap := filepath.Join(dir, "td.snap")
				wal := filepath.Join(dir, "td.wal")
				s, err := db.OpenStore(snap, wal)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < history; i++ {
					ops := []db.Op{{Insert: true, Pred: "mark", Row: []term.Term{term.NewInt(int64(i))}}}
					if i >= live {
						ops = append([]db.Op{{Pred: "mark", Row: []term.Term{term.NewInt(int64(i - live))}}}, ops...)
					}
					if _, err := s.ApplyOps(ops); err != nil {
						b.Fatal(err)
					}
					if ckpt && i == history-suffix {
						if err := s.Commit(); err != nil {
							b.Fatal(err)
						}
						if err := s.CheckpointFrom(db.FreezeDB(s.DB), s.LastLSN()); err != nil {
							b.Fatal(err)
						}
					}
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}

				var replayed int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s, err := db.OpenStore(snap, wal)
					if err != nil {
						b.Fatal(err)
					}
					if got := s.DB.Count("mark", 1); got != live {
						b.Fatalf("recovered %d marks, want %d", got, live)
					}
					replayed = s.Recovery().ReplayedRecords
					s.Close()
				}
				b.StopTimer()
				b.ReportMetric(float64(replayed), "replayed")
			})
		}
	}
}
