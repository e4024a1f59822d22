// Command tdlog runs Transaction Datalog programs.
//
// Usage:
//
//	tdlog [flags] program.td
//
// The program's "?- goal." directives are executed in order against the
// database formed by the program's facts, threading the database through:
// each committed goal's final state feeds the next goal. With -goal, the
// given goal is run instead of the file's directives.
//
// Flags:
//
//	-goal G       run goal G instead of the file's ?- directives
//	-sim          use the operational simulator (goroutines, blocking
//	              reads, committed choice) instead of the prover
//	-trace        print the execution trace (prover: structured span tree)
//	-all          enumerate all solutions (prover only)
//	-db           print the final database
//	-classify     print the fragment classification and exit
//	-check        print static safety issues and exit nonzero if any
//	-steps N      step budget (prover) / op budget (simulator)
//	-seed N       simulator scheduling seed
//	-timeout D    simulator timeout (e.g. 30s)
//
// Operator modes (no program argument; see docs/PERSISTENCE.md and
// docs/OBSERVABILITY.md):
//
//	-wal file       dump a server write-ahead log
//	-manifest file  dump a snapshot's manifest (format, LSN, record count)
//	-wide file      tabulate the wide events in a server -obs.jsonl file
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"time"

	td "repro"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/term"
)

func main() {
	var (
		goalFlag    = flag.String("goal", "", "goal to run instead of the file's ?- directives")
		simFlag     = flag.Bool("sim", false, "use the operational simulator")
		trace       = flag.Bool("trace", false, "print execution trace")
		all         = flag.Bool("all", false, "enumerate all solutions (prover only)")
		dumpDB      = flag.Bool("db", false, "print the final database")
		classify    = flag.Bool("classify", false, "print fragment classification and exit")
		check       = flag.Bool("check", false, "print static safety issues and exit")
		steps       = flag.Int64("steps", 0, "step/op budget (0 = default)")
		seed        = flag.Int64("seed", 0, "simulator scheduling seed")
		timeout     = flag.Duration("timeout", 30*time.Second, "simulator timeout")
		interactive = flag.Bool("i", false, "interactive REPL after loading the program")
		walDump     = flag.String("wal", "", "dump a server write-ahead log and exit")
		manDump     = flag.String("manifest", "", "dump a snapshot manifest and exit")
		wideDump    = flag.String("wide", "", "tabulate the wide events in a server JSONL file and exit")
	)
	flag.Parse()
	if *walDump != "" || *manDump != "" || *wideDump != "" {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: tdlog -wal file.wal | tdlog -manifest file.snap | tdlog -wide file.jsonl")
			os.Exit(2)
		}
		var err error
		if *manDump != "" {
			err = dumpManifest(os.Stdout, *manDump)
		}
		if err == nil && *walDump != "" {
			err = dumpWAL(os.Stdout, *walDump)
		}
		if err == nil && *wideDump != "" {
			err = dumpWide(os.Stdout, *wideDump)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tdlog:", err)
			os.Exit(1)
		}
		return
	}
	if *interactive {
		if flag.NArg() > 1 {
			fmt.Fprintln(os.Stderr, "usage: tdlog -i [program.td]")
			os.Exit(2)
		}
		var prog *td.Program
		var err error
		if flag.NArg() == 1 {
			prog, err = td.ParseFile(flag.Arg(0))
		} else {
			prog, err = td.Parse("")
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tdlog:", err)
			os.Exit(1)
		}
		d, err := td.DatabaseFor(prog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tdlog:", err)
			os.Exit(1)
		}
		if err := repl(prog, d, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tdlog:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tdlog [flags] program.td")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *goalFlag, options{
		sim: *simFlag, trace: *trace, all: *all, dumpDB: *dumpDB,
		classify: *classify, check: *check,
		steps: *steps, seed: *seed, timeout: *timeout,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "tdlog:", err)
		os.Exit(1)
	}
}

type options struct {
	sim, trace, all, dumpDB, classify, check bool
	steps                                    int64
	seed                                     int64
	timeout                                  time.Duration
}

func run(path, goalSrc string, opt options) error {
	prog, err := td.ParseFile(path)
	if err != nil {
		return err
	}

	if opt.classify {
		rep := td.Classify(prog)
		fmt.Printf("fragment: %s\n", rep.Fragment)
		fmt.Printf("complexity: %s\n", rep.Fragment.Complexity())
		fmt.Printf("features: %+v\n", rep.Features)
		return nil
	}
	if opt.check {
		issues := td.CheckSafety(prog)
		for _, is := range issues {
			fmt.Println(is)
		}
		if len(issues) > 0 {
			return fmt.Errorf("%d safety issue(s)", len(issues))
		}
		fmt.Println("no safety issues")
		return nil
	}

	goals := prog.Queries
	if goalSrc != "" {
		g, _, err := td.ParseGoal(goalSrc, prog.VarHigh)
		if err != nil {
			return err
		}
		goals = []td.Goal{g}
	}
	if len(goals) == 0 {
		return fmt.Errorf("%s has no ?- directives; use -goal", path)
	}

	d, err := td.DatabaseFor(prog)
	if err != nil {
		return err
	}

	for _, g := range goals {
		if len(goals) > 1 {
			fmt.Printf("?- %s.\n", g)
		}
		if opt.sim {
			sopts := sim.Options{Seed: opt.seed, Timeout: opt.timeout, MaxOps: opt.steps, Trace: opt.trace, Shuffle: opt.seed != 0}
			res := td.NewSimulator(prog, sopts).Run(g, d)
			if res.Completed {
				fmt.Printf("completed (%d ops, %d processes)\n", res.Ops, res.Spawned)
				d = res.Final
			} else {
				fmt.Printf("failed: %v\n", res.Err)
			}
			if opt.trace {
				for _, e := range res.Events {
					fmt.Println("  ", e)
				}
			}
			continue
		}
		eopts := engine.DefaultOptions()
		eopts.MaxSteps = opt.steps
		eopts.Trace = opt.trace
		eng := td.NewEngine(prog, eopts)
		if opt.all {
			sols, res, err := eng.Solutions(g, d, 0)
			if err != nil {
				return err
			}
			fmt.Printf("%d solution(s) in %d steps\n", len(sols), res.Stats.Steps)
			for j, s := range sols {
				fmt.Printf("  solution %d: %v\n", j+1, s.Bindings)
			}
			continue
		}
		res, err := eng.Prove(g, d)
		if err != nil {
			return err
		}
		if res.Success {
			fmt.Printf("yes (%d steps)\n", res.Stats.Steps)
			printBindings(os.Stdout, res.Bindings)
		} else {
			fmt.Printf("no (%d steps)\n", res.Stats.Steps)
		}
		if res.Spans != nil {
			obs.WriteTree(os.Stdout, res.Spans)
		}
	}
	if opt.dumpDB {
		fmt.Print(d)
	}
	return nil
}

// printBindings prints a witness's bindings one per line, in name order.
func printBindings(w io.Writer, b map[string]term.Term) {
	for _, name := range slices.Sorted(maps.Keys(b)) {
		fmt.Fprintf(w, "  %s = %s\n", name, b[name])
	}
}

// dumpWAL prints a server write-ahead log entry by entry: operations with
// their decoded atoms, commit boundaries with their LSNs. A torn or corrupt
// tail ends the dump cleanly, mirroring what recovery would replay.
func dumpWAL(w io.Writer, path string) error {
	ops, commits := 0, 0
	err := db.ScanWAL(path, func(e db.WALEntry) bool {
		if e.Boundary {
			commits++
			fmt.Fprintf(w, "commit lsn=%d\n", e.LSN)
			return true
		}
		ops++
		verb := "del"
		if e.Insert {
			verb = "ins"
		}
		row, derr := term.DecodeKey(e.Key)
		if derr != nil {
			fmt.Fprintf(w, "  %s %s/%d (undecodable key)\n", verb, e.Pred, e.Arity)
			return true
		}
		fmt.Fprintf(w, "  %s %s\n", verb, term.Atom{Pred: e.Pred, Args: row})
		return true
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wal: v2 framing, %d op record(s), %d commit boundar%s\n",
		ops, commits, map[bool]string{true: "y", false: "ies"}[commits == 1])
	return nil
}

// wideStages is the pipeline order used when rendering a wide event's stage
// breakdown (matching the server's stage taxonomy).
var wideStages = []string{"parse", "prove", "validate", "lane_wait", "apply", "wal_append", "fsync_wait", "ack"}

// dumpWide tabulates the wide events in a server -obs.jsonl file: one row
// per transaction plus aggregate per-stage totals. Span-tree lines share the
// stream but carry no "event" discriminator; they are skipped.
func dumpWide(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	txns, skipped := 0, 0
	totals := make(map[string]int64, len(wideStages))
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev obs.WideEvent
		if err := json.Unmarshal(line, &ev); err != nil || ev.Event != "txn" {
			skipped++ // a span line, or garbage: not ours to decode
			continue
		}
		txns++
		fmt.Fprintf(w, "txn trace=%d session=%d verb=%s", ev.Trace, ev.Session, ev.Verb)
		if ev.Goal != "" {
			fmt.Fprintf(w, " goal=%q", ev.Goal)
		}
		if ev.LSN > 0 {
			fmt.Fprintf(w, " lsn=%d", ev.LSN)
		}
		if ev.Retries > 0 {
			fmt.Fprintf(w, " retries=%d", ev.Retries)
		}
		if ev.Conflict != "" {
			fmt.Fprintf(w, " conflict=%s", ev.Conflict)
		}
		if ev.ConflictAtom != "" {
			fmt.Fprintf(w, " lost_to=%d:%s", ev.ConflictLSN, ev.ConflictAtom)
		}
		if ev.Ops > 0 {
			fmt.Fprintf(w, " ops=%d", ev.Ops)
		}
		if ev.Batch > 0 {
			fmt.Fprintf(w, " batch=%d", ev.Batch)
		}
		if ev.MemoHits > 0 {
			fmt.Fprintf(w, " memo_hits=%d", ev.MemoHits)
		}
		if ev.MemoMisses > 0 {
			fmt.Fprintf(w, " memo_misses=%d", ev.MemoMisses)
		}
		if ev.MemoStale != "" {
			fmt.Fprintf(w, " memo_stale=%s", ev.MemoStale)
		}
		fmt.Fprintf(w, " total=%dus\n", ev.TotalUs)
		if len(ev.StageUs) > 0 {
			fmt.Fprint(w, " ")
			for _, stage := range wideStages {
				if us, ok := ev.StageUs[stage]; ok {
					fmt.Fprintf(w, " %s=%d", stage, us)
					totals[stage] += us
				}
			}
			fmt.Fprintln(w)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wide: %d transaction(s), %d other line(s)\n", txns, skipped)
	if txns > 0 {
		fmt.Fprint(w, "stage totals (us):")
		for _, stage := range wideStages {
			if us, ok := totals[stage]; ok {
				fmt.Fprintf(w, " %s=%d", stage, us)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// dumpManifest prints a snapshot's manifest.
func dumpManifest(w io.Writer, path string) error {
	man, err := db.ReadManifest(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "snapshot: format v%d, lsn %d, %d record(s)\n",
		man.FormatVersion, man.LSN, man.Records)
	return nil
}
