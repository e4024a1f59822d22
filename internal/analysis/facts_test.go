package analysis

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/machine"
	"repro/internal/parser"
	"repro/internal/term"
)

// factsDump renders everything the surfaces read off the facts layer for
// one program: the fragment verdict with its features, every derived
// predicate's certificate facts, the safety view, and the engine's
// reaches-recursion set.
func factsDump(prog *ast.Program) string {
	f := Analyze(prog)
	var b strings.Builder
	frep := f.Classify()
	fmt.Fprintf(&b, "fragment: %s\n", frep.Fragment)
	fmt.Fprintf(&b, "complexity: %s\n", frep.Fragment.Complexity())
	fmt.Fprintf(&b, "features: %+v\n", frep.Features)
	for _, pp := range f.Plan().Predicates {
		fmt.Fprintf(&b, "pred %s recursion=%s update_free=%v hypothetical_free=%v support=%v adornments=%v\n",
			pp.Pred, pp.Recursion, pp.UpdateFree, pp.HypotheticalFree, pp.Support, pp.Adornments)
	}
	for _, is := range f.CheckSafety() {
		fmt.Fprintf(&b, "safety: %s\n", is)
	}
	// Sorted: the machine compiler emits its rules in map order, so the
	// call graph's node order differs from run to run.
	var reaches []string
	f.ReachesRecursion(func(pred string, arity int) { reaches = append(reaches, fmt.Sprintf("%s/%d", pred, arity)) })
	sort.Strings(reaches)
	fmt.Fprintf(&b, "reaches_recursion: %v\n", reaches)
	return b.String()
}

// factsCorpus returns the programs facts.golden covers, by section name:
// every corpus file, this package's own fixtures, and every machine
// encoding — the programs deliberately built to sit at known rungs of the
// complexity ladder.
func factsCorpus(t *testing.T) (names []string, srcs map[string]string) {
	t.Helper()
	srcs = make(map[string]string)
	for _, file := range corpusFiles(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(file)] = string(src)
	}
	// The lint and plan fixtures: small programs written to have safety
	// issues, every recursion class, and non-trivial adornments.
	fixtures, _ := filepath.Glob(filepath.Join("testdata", "*.td"))
	planFixtures, _ := filepath.Glob(filepath.Join("testdata", "plan", "*.td"))
	for _, file := range append(fixtures, planFixtures...) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		srcs["fixture/"+filepath.ToSlash(strings.TrimPrefix(file, "testdata"+string(filepath.Separator)))] = string(src)
	}
	machines := map[string]*machine.Machine{
		"parity":  machine.Parity(),
		"dyck":    machine.Dyck(),
		"copy":    machine.Copy(),
		"diverge": machine.Diverge(),
	}
	two, err := machine.TMAnBn().ToTwoStack()
	if err != nil {
		t.Fatalf("TMAnBn.ToTwoStack: %v", err)
	}
	machines["tm-anbn"] = two
	for name, m := range machines {
		src, _, err := machine.Source(m, []string{"a", "b"})
		if err != nil {
			t.Fatalf("Source(%s): %v", name, err)
		}
		srcs["machine/"+name] = src
	}
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, srcs
}

// TestFragmentCrossCheck checks the facts layer against testdata/facts.golden
// on every corpus program and machine encoding. The golden was recorded at
// PR 13, from the three analyses this layer replaced (internal/fragments,
// ast.CheckSafety, and the vetter behind Plan and ReachesRecursion), so a
// mismatch means one of the folds no longer agrees with the code it
// superseded. Regenerate (only for a deliberate change of verdict) with
//
//	UPDATE_GOLDEN=1 go test ./internal/analysis -run TestFragmentCrossCheck
func TestFragmentCrossCheck(t *testing.T) {
	goldenFile := filepath.Join("testdata", "facts.golden")
	names, srcs := factsCorpus(t)
	got := make(map[string]string, len(names))
	progs := make(map[string]*ast.Program, len(names))
	for _, name := range names {
		prog, err := parser.Parse(srcs[name])
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		progs[name], got[name] = prog, factsDump(prog)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "== %s\n%s", name, got[name])
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	want := make(map[string]string)
	for _, section := range strings.Split(string(data), "== ")[1:] {
		name, body, _ := strings.Cut(section, "\n")
		want[name] = body
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d programs, corpus has %d", len(want), len(got))
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			if got[name] != want[name] {
				t.Errorf("facts mismatch\n--- got ---\n%s--- want ---\n%s", got[name], want[name])
			}
			// tdvet's report carries the same verdict as the classifier.
			rep := Vet(progs[name])
			if line := "fragment: " + rep.Fragment + "\ncomplexity: " + rep.Complexity + "\n"; !strings.HasPrefix(got[name], line) {
				t.Errorf("tdvet reports %q / %q, classifier says:\n%s", rep.Fragment, rep.Complexity, got[name])
			}
			if infos := findDiags(rep, LintFragment); len(infos) != 1 || !strings.Contains(infos[0].Msg, rep.Fragment) {
				t.Errorf("want exactly one fragment info diagnostic naming %q, got %v", rep.Fragment, infos)
			}
		})
	}
}

// TestCallGraphAgainstClosureOracle checks the one SCC decomposition and the
// one reachability fixpoint against a naive O(n³) transitive closure on
// random call graphs: a node is on a cycle iff it reaches itself in at
// least one edge, two nodes share an SCC iff each reaches the other, and
// reaching(marked) is exactly "marked, or reaches a marked node".
func TestCallGraphAgainstClosureOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(9)
		density := rng.Float64() * 0.5
		edge := make([][]bool, n)
		prog := &ast.Program{}
		for x := 0; x < n; x++ {
			edge[x] = make([]bool, n)
			var body []ast.Goal
			for y := 0; y < n; y++ {
				if rng.Float64() < density {
					edge[x][y] = true
					body = append(body, &ast.Lit{Op: ast.OpCall, Atom: term.NewAtom(fmt.Sprintf("p%d", y))})
				}
			}
			// Nest some of the calls so the graph walk is exercised too.
			if len(body) > 1 && rng.Intn(2) == 0 {
				body = []ast.Goal{body[0], &ast.Iso{Body: ast.NewConc(body[1:]...)}}
			}
			prog.Rules = append(prog.Rules, ast.Rule{Head: term.NewAtom(fmt.Sprintf("p%d", x)), Body: ast.NewSeq(body...)})
		}
		// closure[x][y]: x reaches y in at least one edge.
		closure := make([][]bool, n)
		for x := range closure {
			closure[x] = append([]bool(nil), edge[x]...)
		}
		for k := 0; k < n; k++ {
			for x := 0; x < n; x++ {
				for y := 0; y < n; y++ {
					if closure[x][k] && closure[k][y] {
						closure[x][y] = true
					}
				}
			}
		}

		f := Analyze(prog)
		marked := make([]bool, n)
		for x := range marked {
			marked[x] = rng.Intn(4) == 0
		}
		reach := f.reaching(marked)
		for x := 0; x < n; x++ {
			if f.inCycle[x] != closure[x][x] {
				t.Fatalf("trial %d: inCycle(p%d) = %v, closure says %v\n%s", trial, x, f.inCycle[x], closure[x][x], prog)
			}
			wantReach := marked[x]
			for y := 0; y < n; y++ {
				if same := f.sccID[x] == f.sccID[y]; same != (x == y || closure[x][y] && closure[y][x]) {
					t.Fatalf("trial %d: sameSCC(p%d, p%d) = %v disagrees with mutual reachability\n%s", trial, x, y, same, prog)
				}
				wantReach = wantReach || closure[x][y] && marked[y]
			}
			if reach[x] != wantReach {
				t.Fatalf("trial %d: reaching(%v)[p%d] = %v, closure says %v\n%s", trial, marked, x, reach[x], wantReach, prog)
			}
		}
	}
}
