// Command tdserver runs the TD transaction service and exercises it.
//
// Usage:
//
//	tdserver serve [-addr :7090] [-program file.td] [-snap s.gob -wal w.wal] [flags]
//	tdserver bank  [-addr :7090] [-clients 8] [-txns 50] [-accounts 4]
//	tdserver exec  [-addr :7090] goal
//	tdserver query [-addr :7090] [-max N] goal
//	tdserver stats [-addr :7090]
//
// serve starts the server. With -snap and -wal it recovers committed state
// from the write-ahead log on startup and runs durably; without them it
// runs in memory. SIGINT/SIGTERM shut it down gracefully (open
// transactions abort; committed work is already durable).
//
// Observability (see docs/OBSERVABILITY.md): -obs.addr serves /metrics
// (Prometheus text) and /debug/pprof; -obs.slowtxn logs the span tree of
// any goal slower than the threshold; -obs.trace traces every goal;
// -obs.jsonl appends every traced goal's span tree and every sampled
// transaction's wide event to a JSON-lines file; -obs.sample attributes
// every Nth transaction's latency to pipeline stages; -obs.slo tracks
// latency objectives against the commit and fsync signals; -obs.profile
// attributes prover time per predicate. `tdtop -addr` renders the live
// stage/SLO picture in the terminal; `tdlog -wide file.jsonl` tabulates
// recorded wide events.
//
// bank is a load generator and correctness demo: it loads a bank of
// -accounts accounts holding 100 each (unless the server already has
// accounts — e.g. after a restart — in which case it keeps them), then
// runs -clients concurrent clients each committing -txns random
// iso(transfer(...)) transactions, and finally checks that money was
// conserved and prints throughput and the server's STATS counters.
//
// serve and bank both accept -cpuprofile and -memprofile flags that write
// runtime/pprof profiles (the CPU profile covers the whole run; the heap
// profile is taken at exit after a GC). `make profile` runs the bank load
// generator under the CPU profiler against a throwaway in-memory server.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	td "repro"
	"repro/internal/obs"
)

// profileFlags adds -cpuprofile/-memprofile to a subcommand's flag set.
// startProfiles begins CPU profiling if requested and returns a stop
// function that finishes the CPU profile and writes the heap profile; call
// it on every exit path (the subcommands defer it).
type profileFlags struct {
	cpu *string
	mem *string
}

func addProfileFlags(fs *flag.FlagSet) profileFlags {
	return profileFlags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

func (p profileFlags) start() (stop func(), err error) {
	var cpuFile *os.File
	if *p.cpu != "" {
		cpuFile, err = os.Create(*p.cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if *p.mem != "" {
			f, err := os.Create(*p.mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tdserver: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // get up-to-date live-object statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tdserver: memprofile:", err)
			}
		}
	}, nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = serveCmd(os.Args[2:])
	case "bank":
		err = bankCmd(os.Args[2:])
	case "exec":
		err = execCmd(os.Args[2:])
	case "query":
		err = queryCmd(os.Args[2:])
	case "stats":
		err = statsCmd(os.Args[2:])
	case "checkpoint":
		err = checkpointCmd(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "tdserver: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdserver:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tdserver serve [-addr :7090] [-program file.td] [-snap s.gob -wal w.wal] [flags]
  tdserver bank  [-addr :7090] [-clients 8] [-txns 50] [-accounts 4]
  tdserver exec  [-addr :7090] goal
  tdserver query [-addr :7090] [-max N] goal
  tdserver stats [-addr :7090]
  tdserver checkpoint [-addr :7090]`)
}

func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", ":7090", "listen address")
		programPath = fs.String("program", "", "TD program file installed as the default rulebase (its facts seed an empty database)")
		snap        = fs.String("snap", "", "snapshot path (durable mode; requires -wal)")
		wal         = fs.String("wal", "", "write-ahead log path (durable mode; requires -snap)")
		maxSessions = fs.Int("max-sessions", 0, "max concurrent sessions (0 = default)")
		maxSteps    = fs.Int64("max-steps", 0, "per-goal proof step budget (0 = default)")
		goalTime    = fs.Duration("goal-time", 0, "per-goal wall-clock budget (0 = default)")
		idle        = fs.Duration("idle", 0, "per-connection idle timeout (0 = default)")
		nosync      = fs.Bool("nosync", false, "skip fsync on commit (throughput over durability)")
		maxBatch    = fs.Int("commit.maxbatch", 0, "max commits per group-commit fsync batch (0 = default)")
		maxDelay    = fs.Duration("commit.maxdelay", 0, "how long the flusher holds a batch open for more committers to join before fsyncing (0 = the 2ms default; negative disables accumulation)")
		ckptEvery   = fs.Duration("checkpoint.interval", 0, "background checkpoint cadence (0 = no timer; CHECKPOINT verb always works)")
		ckptWAL     = fs.Int64("checkpoint.walsize", 0, "checkpoint when the WAL exceeds this many bytes (0 = no size trigger)")
		histWindow  = fs.Int("history.window", 0, "commit versions retained for ASOF/CHANGES (0 = default 256, negative = none)")
		obsAddr     = fs.String("obs.addr", "", "serve /metrics (Prometheus text) and /debug/pprof on this address")
		obsSlow     = fs.Duration("obs.slowtxn", 0, "log the span tree of any goal slower than this (0 = off)")
		obsTrace    = fs.Bool("obs.trace", false, "trace every session's goals (TRACE dump works without opting in)")
		obsJSONL    = fs.String("obs.jsonl", "", "append every traced goal's span tree and every sampled transaction's wide event as JSON lines to this file")
		obsSample   = fs.Int("obs.sample", 0, "attribute every Nth transaction's latency to pipeline stages (0 = off; implied 1 by -obs.jsonl)")
		obsSLO      = fs.String("obs.slo", "", `latency objectives, e.g. "commit:5ms:0.999,fsync:20ms:0.99"`)
		obsProfile  = fs.Bool("obs.profile", false, "attribute prover time per predicate for every session (PROFILE verb toggles per session)")
		table       = fs.String("engine.table", "", `table derived-predicate answers: "auto" (profile-driven top-K), "all", a predicate list, or "" = off (TABLE verb toggles per session)`)
		tableMaxMB  = fs.Int("engine.table.maxmb", 0, "memo-store answer budget in MiB before LRU eviction (0 = default)")
		prof        = addProfileFlags(fs)
	)
	fs.Parse(args)
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer stopProf()

	opts := td.ServerOptions{
		SnapshotPath:       *snap,
		WALPath:            *wal,
		MaxSessions:        *maxSessions,
		MaxSteps:           *maxSteps,
		MaxGoalTime:        *goalTime,
		IdleTimeout:        *idle,
		NoSync:             *nosync,
		CommitMaxBatch:     *maxBatch,
		CommitMaxDelay:     *maxDelay,
		CheckpointInterval: *ckptEvery,
		CheckpointWALSize:  *ckptWAL,
		HistoryWindow:      *histWindow,
		Trace:              *obsTrace,
		SlowTxn:            *obsSlow,
		StageSample:        *obsSample,
		Profile:            *obsProfile,
		Table:              *table,
		TableMaxMB:         *tableMaxMB,
		Logger:             slog.Default(),
	}
	if *obsSLO != "" {
		slos, err := obs.ParseSLOs(*obsSLO)
		if err != nil {
			return err
		}
		opts.SLOs = slos
	}
	if *obsJSONL != "" {
		sink, err := obs.OpenJSONL(*obsJSONL)
		if err != nil {
			return err
		}
		defer sink.Close()
		opts.TraceSink = sink
		opts.WideSink = sink
	}
	if *programPath != "" {
		src, err := os.ReadFile(*programPath)
		if err != nil {
			return err
		}
		opts.Program = string(src)
	}
	srv, err := td.NewServer(opts)
	if err != nil {
		return err
	}
	lnAddr, err := srv.Listen(*addr)
	if err != nil {
		return err
	}
	fmt.Printf("tdserver: listening on %s (version %d, %d tuples)\n",
		lnAddr, srv.Version(), srv.Snapshot().Size())
	if *obsAddr != "" {
		obsSrv := &http.Server{Addr: *obsAddr, Handler: obs.NewMux(srv.Metrics())}
		go func() {
			if err := obsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "tdserver: obs:", err)
			}
		}()
		defer obsSrv.Close()
		fmt.Printf("tdserver: metrics and pprof on http://%s/metrics\n", *obsAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("tdserver: shutting down")
	return srv.Close()
}

// bankSrc builds the demo rulebase plus n seed accounts of 100 each.
func bankSrc(accounts int) string {
	var b strings.Builder
	for i := 0; i < accounts; i++ {
		fmt.Fprintf(&b, "account(%s, 100).\n", accountName(i))
	}
	b.WriteString(`
withdraw(Amt, A) :- account(A, B), B >= Amt, del.account(A, B),
                    sub(B, Amt, C), ins.account(A, C).
deposit(Amt, A)  :- account(A, B), del.account(A, B),
                    add(B, Amt, C), ins.account(A, C).
transfer(Amt, A, B) :- withdraw(Amt, A), deposit(Amt, B).
`)
	return b.String()
}

func accountName(i int) string { return fmt.Sprintf("acct%c", 'a'+rune(i%26)) + strconv.Itoa(i/26) }

func bankCmd(args []string) error {
	fs := flag.NewFlagSet("bank", flag.ExitOnError)
	var (
		addr     = fs.String("addr", ":7090", "server address")
		clients  = fs.Int("clients", 8, "concurrent client connections")
		txns     = fs.Int("txns", 50, "transactions per client")
		accounts = fs.Int("accounts", 4, "accounts in the bank (fewer = more contention)")
		seed     = fs.Int64("seed", 1, "transfer-pattern seed")
		prof     = addProfileFlags(fs)
	)
	fs.Parse(args)
	if *accounts < 2 {
		return fmt.Errorf("need at least 2 accounts")
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer stopProf()

	// Seed the bank through one setup client. If the server already holds
	// accounts (a restart), keep them: the whole point of durability is
	// that the committed balances survive.
	setup, err := td.DialServer(*addr)
	if err != nil {
		return err
	}
	defer setup.Close()
	existing, err := setup.Query("account(A, B)", 0)
	if err != nil {
		return err
	}
	if len(existing) == 0 {
		if err := setup.Load(bankSrc(*accounts)); err != nil {
			return err
		}
	} else {
		fmt.Printf("bank: reusing %d existing accounts (recovered state)\n", len(existing))
		if err := setup.Load(bankSrc(0)); err != nil { // rules only
			return err
		}
	}
	before, err := sumBalances(setup)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(existing))
	if len(existing) == 0 {
		for i := 0; i < *accounts; i++ {
			names = append(names, accountName(i))
		}
	} else {
		for _, sol := range existing {
			names = append(names, sol["A"])
		}
	}

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		committed int
		conflicts int
		firstErr  error
	)
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := td.DialServer(*addr)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			defer cl.Close()
			if err := cl.Load(bankSrc(0)); err != nil { // rules only
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			rng := rand.New(rand.NewSource(*seed + int64(c)))
			for i := 0; i < *txns; i++ {
				from := names[rng.Intn(len(names))]
				to := names[rng.Intn(len(names))]
				for to == from {
					to = names[rng.Intn(len(names))]
				}
				amt := 1 + rng.Intn(5)
				res, err := cl.Exec(fmt.Sprintf("iso(transfer(%d, %s, %s))", amt, from, to))
				mu.Lock()
				switch {
				case err == nil:
					committed++
					conflicts += res.Retries
				case td.IsNoProof(err) || td.IsConflict(err):
					// Insufficient funds, or gave up after retries: an
					// abort, not a failure of the demo.
				default:
					if firstErr == nil {
						firstErr = err
					}
				}
				mu.Unlock()
				if err != nil && !td.IsNoProof(err) && !td.IsConflict(err) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return firstErr
	}

	after, err := sumBalances(setup)
	if err != nil {
		return err
	}
	st, err := setup.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("bank: %d clients x %d txns: %d committed in %v (%.0f commits/sec)\n",
		*clients, *txns, committed, elapsed.Round(time.Millisecond),
		float64(committed)/elapsed.Seconds())
	fmt.Printf("bank: money before=%d after=%d (%s)\n", before, after, conserved(before, after))
	fmt.Printf("bank: server stats: version=%d commits=%d conflicts=%d retries=%d aborts=%d no_proof=%d p50=%dus p99=%dus wal=%dB\n",
		st.Version, st.Commits, st.Conflicts, st.Retries, st.Aborts, st.NoProof,
		st.CommitP50Us, st.CommitP99Us, st.WALBytes)
	if before != after {
		return fmt.Errorf("money not conserved: %d -> %d", before, after)
	}
	return nil
}

func conserved(before, after int64) string {
	if before == after {
		return "conserved"
	}
	return "NOT CONSERVED"
}

func sumBalances(cl *td.ServerClient) (int64, error) {
	sols, err := cl.Query("account(A, B)", 0)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, sol := range sols {
		n, err := strconv.ParseInt(sol["B"], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("non-integer balance %q", sol["B"])
		}
		total += n
	}
	return total, nil
}

func execCmd(args []string) error {
	fs := flag.NewFlagSet("exec", flag.ExitOnError)
	addr := fs.String("addr", ":7090", "server address")
	program := fs.String("program", "", "TD program file to load first")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: tdserver exec [-addr A] [-program file.td] goal")
	}
	cl, err := td.DialServer(*addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := loadFile(cl, *program); err != nil {
		return err
	}
	res, err := cl.Exec(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("committed at version %d (%d retries)\n", res.Version, res.Retries)
	for name, val := range res.Bindings {
		fmt.Printf("  %s = %s\n", name, val)
	}
	return nil
}

func queryCmd(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	addr := fs.String("addr", ":7090", "server address")
	program := fs.String("program", "", "TD program file to load first")
	max := fs.Int("max", 0, "max solutions (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: tdserver query [-addr A] [-program file.td] [-max N] goal")
	}
	cl, err := td.DialServer(*addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := loadFile(cl, *program); err != nil {
		return err
	}
	sols, err := cl.Query(fs.Arg(0), *max)
	if err != nil {
		return err
	}
	fmt.Printf("%d solution(s)\n", len(sols))
	for i, sol := range sols {
		fmt.Printf("  solution %d: %v\n", i+1, sol)
	}
	return nil
}

func statsCmd(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	addr := fs.String("addr", ":7090", "server address")
	fs.Parse(args)
	cl, err := td.DialServer(*addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	st, err := cl.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("uptime: %dms  version: %d  db: %d tuples  wal: %dB\n",
		st.UptimeMs, st.Version, st.DBSize, st.WALBytes)
	fmt.Printf("sessions: %d open / %d total (%d rejected)\n",
		st.SessionsOpen, st.SessionsTotal, st.Rejected)
	fmt.Printf("txns: %d begun, %d committed, %d aborted (%d conflicts, %d retries, %d no-proof, %d budget)\n",
		st.TxnsBegun, st.Commits, st.Aborts, st.Conflicts, st.Retries, st.NoProof, st.BudgetHits)
	fmt.Printf("commit latency: p50=%dus p99=%dus\n", st.CommitP50Us, st.CommitP99Us)
	if len(st.ConflictCauses) > 0 {
		fmt.Printf("conflict causes: %v\n", st.ConflictCauses)
	}
	if st.Fsyncs > 0 {
		fmt.Printf("fsyncs: %d (p99=%dus)\n", st.Fsyncs, st.FsyncP99Us)
	}
	if st.EngineSteps > 0 {
		fmt.Printf("engine: %d steps, %d unifications, %d table hits\n",
			st.EngineSteps, st.EngineUnifications, st.EngineTableHits)
		fmt.Printf("db: %d lookups, %d index hits, %d scans, %d order rebuilds, %d delta ops\n",
			st.DBLookups, st.DBIndexHits, st.DBScans, st.DBOrderRebuilds, st.DeltaOps)
	}
	if st.SlowTxns > 0 {
		fmt.Printf("slow txns: %d\n", st.SlowTxns)
	}
	if st.VetRejects > 0 {
		fmt.Printf("vet rejections: %d\n", st.VetRejects)
	}
	if st.Checkpoints > 0 {
		fmt.Printf("checkpoints: %d (p99=%dus)\n", st.Checkpoints, st.CheckpointP99Us)
	}
	if st.RecoveryReplayed > 0 {
		fmt.Printf("recovery: %d WAL records replayed at boot\n", st.RecoveryReplayed)
	}
	if len(st.StageP99Us) > 0 {
		fmt.Println("stage latency (sampled, p50/p99 us):")
		for _, stage := range []string{"parse", "prove", "validate", "lane_wait", "apply", "wal_append", "fsync_wait", "ack"} {
			if p99, ok := st.StageP99Us[stage]; ok {
				fmt.Printf("  %-10s %6d / %6d\n", stage, st.StageP50Us[stage], p99)
			}
		}
	}
	if st.MemoHits+st.MemoMisses > 0 {
		total := st.MemoHits + st.MemoMisses
		fmt.Printf("memo: %d hits / %d calls (%.1f%%), %d entries, %dB, %d invalidations, %d evictions\n",
			st.MemoHits, total, float64(st.MemoHits)/float64(total)*100,
			st.MemoEntries, st.MemoBytes, st.MemoInvalidations, st.MemoEvictions)
		for _, p := range st.MemoPreds {
			fmt.Printf("  %-16s hits=%d misses=%d\n", p.Pred, p.Hits, p.Misses)
		}
	}
	if len(st.ProverProfile) > 0 {
		fmt.Println("prover profile (per predicate):")
		for pred, p := range st.ProverProfile {
			fmt.Printf("  %-16s calls=%d fanout=%d time=%dus\n", pred, p.Calls, p.Fanout, p.TimeUs)
		}
	}
	for _, slo := range st.SLOs {
		fmt.Printf("slo %s: %d/%d good within %dus (objective %g, burn %.2f)\n",
			slo.Name, slo.Good, slo.Total, slo.ThresholdUs, slo.Objective, slo.BurnRate)
	}
	return nil
}

func checkpointCmd(args []string) error {
	fs := flag.NewFlagSet("checkpoint", flag.ExitOnError)
	addr := fs.String("addr", ":7090", "server address")
	fs.Parse(args)
	cl, err := td.DialServer(*addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	lsn, err := cl.Checkpoint()
	if err != nil {
		return err
	}
	fmt.Printf("checkpointed at lsn %d\n", lsn)
	return nil
}

func loadFile(cl *td.ServerClient, path string) error {
	if path == "" {
		return nil
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return cl.Load(string(src))
}
