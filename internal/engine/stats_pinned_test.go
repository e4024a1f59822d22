package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/machine"
	"repro/internal/parser"
	"repro/internal/workflow"
)

// TestSearchStatsPinned pins the search-effort counters that the
// configuration keys decide — Steps, TableHits, LoopHits, TableSize,
// Successes — for the shipped corpus, the machine encodings, a failing '|'
// search that lives off the failure table, and recursive programs that
// terminate only through the path-cycle check. testdata/stats.golden was
// recorded from the engine that computed a key on every transition; any
// change to when a key is computed must leave every line alone.
// Regenerate (after an intended change to the search itself) with
//
//	UPDATE_GOLDEN=1 go test ./internal/engine -run TestSearchStatsPinned
func TestSearchStatsPinned(t *testing.T) {
	var out strings.Builder
	type config struct {
		tag  string
		opts Options
	}
	tabled := []config{
		{"default", DefaultOptions()},
		{"session", Options{LoopCheck: true, Table: true, Plan: true}},
	}
	// Without the failure table the machine encodings' exhaustive searches
	// run into the millions of steps; the small programs take this too.
	untabled := append(tabled[:2:2], config{"loopcheck", Options{LoopCheck: true}})
	record := func(name string, prog *ast.Program, g ast.Goal, configs []config) {
		t.Helper()
		for _, oc := range configs {
			e := New(prog, oc.opts)
			res, err := e.Prove(g, freshDB(t, prog))
			if err != nil {
				t.Fatalf("%s %s prove: %v", name, oc.tag, err)
			}
			fmt.Fprintf(&out, "%s %s prove success=%v %s\n", name, oc.tag, res.Success, pinned(res.Stats))
			_, res, err = e.Solutions(g, freshDB(t, prog), planSolutionCap)
			if err != nil {
				t.Fatalf("%s %s solutions: %v", name, oc.tag, err)
			}
			fmt.Fprintf(&out, "%s %s solutions %s\n", name, oc.tag, pinned(res.Stats))
		}
	}

	for _, file := range planCorpus(t) {
		prog, err := parser.ParseFile(file)
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		for i, g := range prog.Queries {
			record(fmt.Sprintf("%s/goal%d", filepath.Base(file), i), prog, g, untabled)
		}
	}

	for _, c := range pinnedPrograms(t) {
		prog := parser.MustParse(c.src)
		configs := untabled
		if strings.HasPrefix(c.name, "machine/") {
			configs = tabled
		}
		record(c.name, prog, parser.MustParseGoal(c.goal, prog.VarHigh), configs)
	}

	got := out.String()
	golden := filepath.Join("testdata", "stats.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("%d lines, want %d", len(gl), len(wl))
		}
	}
}

func pinned(s Stats) string {
	return fmt.Sprintf("steps=%d tablehits=%d loophits=%d tablesize=%d successes=%d",
		s.Steps, s.TableHits, s.LoopHits, s.TableSize, s.Successes)
}

type pinnedProgram struct{ name, src, goal string }

// failingConcSrc is a '|' composition with no successful execution: the
// third branch waits for a tuple nobody inserts, so the search exhausts
// every interleaving of the two workers, and the failure table is what
// merges the interleavings that meet in the same configuration.
const failingConcSrc = `
	work(W) :- ins.s1(W), ins.s2(W), ins.s3(W).
`

// loopTerminatedSrc holds recursion that changes nothing: without the
// path-cycle check these searches do not terminate.
const loopTerminatedSrc = `
	edge(a, b). edge(b, c). edge(c, a). edge(b, d).
	path(X, Y) :- edge(X, Y).
	path(X, Y) :- edge(X, Z), path(Z, Y).
	spin :- spin.
	spin :- ins.done.
`

// mixedSrc holds a recursive driver beside a non-recursive transaction.
const mixedSrc = `
	account(a, 100). account(b, 100).
	todo(t1). todo(t2).
	transfer(Amt, A, B) :- account(A, X), X >= Amt, sub(X, Amt, X1),
		del.account(A, X), ins.account(A, X1),
		account(B, Y), add(Y, Amt, Y1), del.account(B, Y), ins.account(B, Y1).
	driver :- todo(T), peek(T), driver.
	driver :- todo(t2).
	peek(T) :- todo(T).
`

// labWorkflow is the lab_flow transaction of BENCHMARK.json: one whole
// genome-laboratory mapping workflow over the benchmark's agent pool.
func labWorkflow(t *testing.T) pinnedProgram {
	t.Helper()
	rules, err := workflow.Compile(workflow.GenomeSpec())
	if err != nil {
		t.Fatal(err)
	}
	return pinnedProgram{"lab/wf_mapping", rules + workflow.AgentFacts(map[string]int{
		"technician": 2, "thermocycler": 1, "gel_rig": 1, "camera": 1, "analyst": 2,
	}), "iso(wf_mapping(7))"}
}

func pinnedPrograms(t *testing.T) []pinnedProgram {
	t.Helper()
	var out []pinnedProgram
	add := func(name, src, goal string) { out = append(out, pinnedProgram{name, src, goal}) }

	for _, mc := range []struct {
		name  string
		m     *machine.Machine
		input []string
	}{
		{"machine/parity5", machine.Parity(), machine.Ones(5)},
		{"machine/dyck3", machine.Dyck(), machine.Nested(3)},
		{"machine/dyck-reject", machine.Dyck(), []string{"r", "l"}},
		{"machine/copy", machine.Copy(), []string{"a", "b", "b"}},
	} {
		src, goal, err := machine.Source(mc.m, mc.input)
		if err != nil {
			t.Fatal(err)
		}
		add(mc.name, src, goal)
	}
	qf, err := machine.QBFFacts(machine.AlternatingQBF(2))
	if err != nil {
		t.Fatal(err)
	}
	add("machine/qbf-alt2", machine.QBFRules+qf, machine.QBFGoal)
	sf, err := machine.SATFacts(machine.PigeonholeCNF(2))
	if err != nil {
		t.Fatal(err)
	}
	add("machine/sat-php2", machine.SATRules+sf, machine.SATGoal)

	out = append(out, labWorkflow(t))

	add("conc/failing", failingConcSrc, "work(w1) | work(w2) | missing(x)")
	add("loop/path-nowhere", loopTerminatedSrc, "path(a, zzz)")
	add("loop/path-all", loopTerminatedSrc, "path(X, Y)")
	add("loop/spin", loopTerminatedSrc, "spin")
	add("mixed/transfer", mixedSrc, "iso(transfer(1, a, b))")
	add("mixed/driver", mixedSrc, "driver")
	add("mixed/both", mixedSrc, "iso(transfer(1, a, b)), driver")
	return out
}
