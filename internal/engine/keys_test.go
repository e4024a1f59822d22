package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// Configuration keys serialize the whole residual, so the prover computes
// one only where it can matter. These tests pin where that is.

// sessionOpts are the options a server session builds its engine with.
func sessionOpts() Options { return Options{LoopCheck: true, Table: true, Plan: true} }

// lastDeriv returns the search state of e's most recent Prove-family call
// (released to the pool, not yet reset).
func lastDeriv(t *testing.T, e *Engine) *deriv {
	t.Helper()
	dv := e.pool.Load()
	if dv == nil {
		t.Fatal("no search state was returned to the engine's pool")
	}
	return dv
}

// keylessCases are the two benchmark transactions: neither program has a
// recursive predicate and neither proof ever fails a configuration, so no
// key is ever needed.
func keylessCases(t *testing.T) []pinnedProgram {
	t.Helper()
	return []pinnedProgram{labWorkflow(t), {"bank/transfer", bankSrc, "iso(transfer(1, alice, bob))"}}
}

func TestNonRecursiveTransactionsComputeNoKey(t *testing.T) {
	for _, c := range keylessCases(t) {
		prog := parser.MustParse(c.src)
		e := New(prog, sessionOpts())
		if len(e.recursive) != 0 {
			t.Fatalf("%s: predicates reaching recursion in a non-recursive program: %v", c.name, e.recursive)
		}
		d := freshDB(t, prog)
		res, ops, err := e.ProveDelta(parser.MustParseGoal(c.goal, prog.VarHigh), d)
		if err != nil || !res.Success || len(ops) == 0 {
			t.Fatalf("%s: success=%v ops=%d err=%v", c.name, res != nil && res.Success, len(ops), err)
		}
		dv := lastDeriv(t, e)
		if dv.path != nil {
			t.Errorf("%s: the path-cycle check is live for a goal that cannot cycle", c.name)
		}
		if dv.keyCalls != 0 {
			t.Errorf("%s: %d configuration keys computed over %d explores, want 0", c.name, dv.keyCalls, dv.explores)
		}
	}
}

// One program, two kinds of goal: the transaction reaches no recursive
// predicate and runs keyless; the driver does, and keeps the every-step
// cycle check that terminates it; a goal holding both keeps it too.
func TestPathCheckFollowsTheGoal(t *testing.T) {
	prog := parser.MustParse(mixedSrc)
	e := New(prog, sessionOpts())
	for _, c := range []struct {
		goal     string
		keyed    bool
		loopHits int64
	}{
		{"iso(transfer(1, a, b))", false, 0},
		{"driver", true, 2},
		{"iso(transfer(1, a, b)), driver", true, 2},
		{"iso(transfer(1, a, b)) | peek(t1)", false, 0},
	} {
		res, err := e.Prove(parser.MustParseGoal(c.goal, prog.VarHigh), freshDB(t, prog))
		if err != nil || !res.Success {
			t.Fatalf("%s: success=%v err=%v", c.goal, res != nil && res.Success, err)
		}
		dv := lastDeriv(t, e)
		if (dv.path != nil) != c.keyed {
			t.Errorf("%s: path check live = %v, want %v", c.goal, dv.path != nil, c.keyed)
		}
		if res.Stats.LoopHits != c.loopHits {
			t.Errorf("%s: LoopHits = %d, want %d", c.goal, res.Stats.LoopHits, c.loopHits)
		}
		if !c.keyed && dv.keyCalls != 0 {
			t.Errorf("%s: %d keys computed, want 0", c.goal, dv.keyCalls)
		}
		if c.keyed && dv.keyCalls != dv.explores {
			t.Errorf("%s: %d keys over %d explores, want one per explore", c.goal, dv.keyCalls, dv.explores)
		}
	}
}

// A search pays for failure-table keys only once it has a failure to
// remember: a configuration entered while the table is empty is keyed when
// (and if) it is recorded, one entered later is keyed at entry and that key
// reused — never more than one per explore.
func TestAtMostOneKeyPerExplore(t *testing.T) {
	check := func(name string, prog *ast.Program, g ast.Goal) {
		t.Helper()
		configs := []Options{DefaultOptions(), sessionOpts()}
		if !strings.HasPrefix(name, "machine/") {
			// Exhausting a machine encoding without the failure table
			// takes millions of steps.
			configs = append(configs, Options{LoopCheck: true})
		}
		for _, opts := range configs {
			e := New(prog, opts)
			if _, _, err := e.Solutions(g, freshDB(t, prog), planSolutionCap); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			dv := lastDeriv(t, e)
			if dv.keyCalls > dv.explores {
				t.Errorf("%s %+v: %d keys over %d explores", name, opts, dv.keyCalls, dv.explores)
			}
		}
	}
	for _, file := range planCorpus(t) {
		prog, err := parser.ParseFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range prog.Queries {
			check(fmt.Sprintf("%s/goal%d", file, i), prog, g)
		}
	}
	for _, c := range pinnedPrograms(t) {
		prog := parser.MustParse(c.src)
		check(c.name, prog, parser.MustParseGoal(c.goal, prog.VarHigh))
	}

	// The failing '|' search records every configuration it explores, so it
	// keys each exactly once: the ancestors of the first failure on the way
	// out, everything after it on the way in.
	prog := parser.MustParse(failingConcSrc)
	e := New(prog, Options{Table: true})
	res, err := e.Prove(parser.MustParseGoal("work(w1) | work(w2) | missing(x)", prog.VarHigh), freshDB(t, prog))
	if err != nil || res.Success || res.Stats.TableHits == 0 {
		t.Fatalf("failing '|' search: success=%v stats=%+v err=%v", res.Success, res.Stats, err)
	}
	dv := lastDeriv(t, e)
	if dv.keyCalls != dv.explores || dv.keyCalls < int64(res.Stats.TableSize) {
		t.Errorf("failing '|' search: %d keys over %d explores with %d failures recorded",
			dv.keyCalls, dv.explores, res.Stats.TableSize)
	}
}

// Allocation ceilings for the two benchmark transactions on a session
// engine, proof only (the database is rolled back, not rebuilt): 509 and
// 85 allocations when written. With a key on every step, two-slice
// residual rebuilds, trace atoms resolved untraced and an unpooled
// ProveDelta they were 1547 and 158; what is left is the renamed rule
// bodies, the residual nodes, and the continuation closures.
func TestTransactionAllocCeilings(t *testing.T) {
	ceilings := map[string]float64{"lab/wf_mapping": 540, "bank/transfer": 90}
	for _, c := range keylessCases(t) {
		prog := parser.MustParse(c.src)
		e := New(prog, sessionOpts())
		g := parser.MustParseGoal(c.goal, prog.VarHigh)
		d := freshDB(t, prog)
		prove := func() {
			mark := d.Mark()
			res, _, err := e.ProveDelta(g, d)
			if err != nil || !res.Success {
				panic(fmt.Sprint(c.name, ": ", err))
			}
			d.Undo(mark)
		}
		prove() // warm the deriv pool
		if n := testing.AllocsPerRun(100, prove); n > ceilings[c.name] {
			t.Errorf("%s: %v allocs per proof, want <= %v", c.name, n, ceilings[c.name])
		}
	}
}

// A search that a path-cycle prune cut short against a still-open ancestor
// has not failed: once that ancestor closes, the same configuration can
// succeed from elsewhere. The failure memo must not record it, so on cyclic
// data it returns the untabled search's answers. On the reach chain with the
// cycle n4 → n5 → n6 → n4 closed, the memo used to turn 15 answers over 8
// bindings into 10 over 7, losing X = n3; on the three-node cycle of
// loopTerminatedSrc, 16 into 11.
func TestFailureMemoKeepsAnswersOnCyclicData(t *testing.T) {
	for _, c := range []struct {
		src, goal         string
		answers, distinct int
	}{
		{reachChainSrc + "edge(n6, n4).\n", "reach(X, n8)", 15, 8},
		{loopTerminatedSrc, "path(X, Y)", 16, 12},
	} {
		prog := parser.MustParse(c.src)
		g := parser.MustParseGoal(c.goal, 1000)
		noMemo := DefaultOptions()
		noMemo.Table = false
		want, _ := planSolutions(t, New(prog, noMemo), prog, g)
		got, _ := planSolutions(t, New(prog, DefaultOptions()), prog, g)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s with the failure memo:\n got %d: %v\nwant %d: %v", c.goal, len(got), got, len(want), want)
		}
		distinct := map[string]bool{}
		for _, s := range want {
			distinct[s] = true
		}
		if len(want) != c.answers || len(distinct) != c.distinct {
			t.Errorf("%s: untabled search found %d answers over %d bindings, want %d over %d",
				c.goal, len(want), len(distinct), c.answers, c.distinct)
		}
	}
}
