package engine

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/parser"
	"repro/internal/term"
)

// First-argument dispatch must be invisible: for every paper example the
// answer sets AND the witness traces must be identical with the compiled
// clause index versus a linear scan over every rule of the predicate. This
// is the semantic safety net for the clause table — dispatch may only skip
// rules whose head could never have unified anyway, and must preserve
// source order among the rules it does try. The linear scan is a test
// reference, not an engine mode: newEngine swaps in an index whose pick
// returns every rule for every call.

// newEngine builds the engine under test. With linear set, the compiled
// clause index is replaced by one that never narrows: per predicate, all
// rules in source order as both the unbound-argument list and the no-bucket
// fallback, and no constant buckets, so pick yields the full rule list
// whatever the call's first argument.
func newEngine(prog *ast.Program, opts Options, linear bool) *Engine {
	e := New(prog, opts)
	if linear {
		for k, pc := range e.idx.byPred {
			e.idx.byPred[k] = &predClauses{all: pc.all, varOnly: pc.all}
		}
	}
	return e
}

// dispatchQueries lists, per example program, extra goals that exercise
// enumeration and unbound-first-argument calls (where the index must fall
// back to the full rule list).
var dispatchQueries = map[string][]string{
	"bank.td": {
		"transfer(30, alice, bob)",
		"balance(A, B)",             // unbound first arg: catch-all path
		"withdraw(60, alice)",       // bound first arg, constant buckets
		"transfer(200, alice, bob)", // must fail identically
	},
	"sync.td": {
		"measure(part1) | verifyp(part1)",
		"measure(p2), verifyp(p2)",
	},
	"workflow.td": {
		"simulate",
		"flow(w1)",
		"newitem(X)",
	},
}

func loadExample(t *testing.T, name string) *ast.Program {
	t.Helper()
	prog, err := parser.ParseFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return prog
}

func freshDB(t *testing.T, prog *ast.Program) *db.DB {
	t.Helper()
	d, err := db.FromFacts(prog.Facts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runProve executes goal under the given index setting and returns the
// observable outcome: success, witness bindings, witness trace, the span
// tree rendering, and the final database fingerprint.
func runProve(t *testing.T, prog *ast.Program, g ast.Goal, noIndex bool) (bool, string, []string, string, [2]uint64) {
	t.Helper()
	opts := DefaultOptions()
	opts.Trace = true
	d := freshDB(t, prog)
	res, err := newEngine(prog, opts, noIndex).Prove(g, d)
	if err != nil {
		t.Fatalf("prove (noIndex=%v): %v", noIndex, err)
	}
	var trace []string
	for _, e := range res.Trace {
		trace = append(trace, e.String())
	}
	spans := ""
	if res.Spans != nil {
		spans = res.Spans.Tree()
	}
	return res.Success, renderBindings(res.Bindings), trace, spans, d.Fingerprint()
}

// renderBindings renders a bindings map in deterministic name order.
func renderBindings(b map[string]term.Term) string {
	names := make([]string, 0, len(b))
	for n := range b {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		out += n + "=" + b[n].String() + " "
	}
	return out
}

func TestDispatchEquivalenceOnPaperExamples(t *testing.T) {
	for file, goals := range dispatchQueries {
		prog := loadExample(t, file)
		// The example's own ?- directives run first, then the extra goals.
		var allGoals []ast.Goal
		allGoals = append(allGoals, prog.Queries...)
		varHigh := prog.VarHigh
		for _, src := range goals {
			g, vh, err := parser.ParseGoal(src, varHigh)
			if err != nil {
				t.Fatalf("%s: parse goal %q: %v", file, src, err)
			}
			varHigh = vh
			allGoals = append(allGoals, g)
		}
		for i, g := range allGoals {
			name := fmt.Sprintf("%s/goal%d", file, i)
			t.Run(name, func(t *testing.T) {
				okIdx, bIdx, trIdx, spIdx, fpIdx := runProve(t, prog, g, false)
				okLin, bLin, trLin, spLin, fpLin := runProve(t, prog, g, true)
				if okIdx != okLin {
					t.Fatalf("success differs: index=%v linear=%v", okIdx, okLin)
				}
				if bIdx != bLin {
					t.Fatalf("witness bindings differ:\n index: %s\n linear: %s", bIdx, bLin)
				}
				if len(trIdx) != len(trLin) {
					t.Fatalf("trace lengths differ: index=%d linear=%d\n index: %v\n linear: %v",
						len(trIdx), len(trLin), trIdx, trLin)
				}
				for j := range trIdx {
					if trIdx[j] != trLin[j] {
						t.Fatalf("trace step %d differs: index=%s linear=%s", j, trIdx[j], trLin[j])
					}
				}
				// Span trees — including the stable branch ids assigned
				// during the search — must be identical: dispatch preserves
				// both the witness path and its branch attribution.
				if spIdx != spLin {
					t.Fatalf("span trees differ:\n index:\n%s\n linear:\n%s", spIdx, spLin)
				}
				if fpIdx != fpLin {
					t.Fatalf("final database fingerprints differ: index=%x linear=%x", fpIdx, fpLin)
				}
			})
		}
	}
}

// answerSetCap bounds enumeration: recursive workflow examples ("simulate"
// composes flows with |) have combinatorially many successful interleavings,
// so comparing a deterministic prefix of the enumeration is the tractable —
// and still order-sensitive — equivalence check.
const answerSetCap = 64

// answerSet enumerates up to answerSetCap solutions of g and returns a
// rendering of each solution's bindings plus its final-state fingerprint,
// in enumeration order.
func answerSet(t *testing.T, prog *ast.Program, g ast.Goal, noIndex bool) []string {
	t.Helper()
	opts := DefaultOptions()
	sols, _, err := newEngine(prog, opts, noIndex).Solutions(g, freshDB(t, prog), answerSetCap)
	if err != nil {
		t.Fatalf("solutions (noIndex=%v): %v", noIndex, err)
	}
	out := make([]string, 0, len(sols))
	for _, s := range sols {
		names := make([]string, 0, len(s.Bindings))
		for n := range s.Bindings {
			names = append(names, n)
		}
		sort.Strings(names)
		r := ""
		for _, n := range names {
			r += n + "=" + s.Bindings[n].String() + " "
		}
		r += fmt.Sprintf("| fp=%x", s.Final.Fingerprint())
		out = append(out, r)
	}
	return out
}

func TestDispatchEquivalentAnswerSets(t *testing.T) {
	for file, goals := range dispatchQueries {
		prog := loadExample(t, file)
		varHigh := prog.VarHigh
		for _, src := range goals {
			g, vh, err := parser.ParseGoal(src, varHigh)
			if err != nil {
				t.Fatalf("%s: parse goal %q: %v", file, src, err)
			}
			varHigh = vh
			t.Run(file+"/"+src, func(t *testing.T) {
				idx := answerSet(t, prog, g, false)
				lin := answerSet(t, prog, g, true)
				if len(idx) != len(lin) {
					t.Fatalf("answer counts differ: index=%d linear=%d", len(idx), len(lin))
				}
				// Solutions enumerate in identical order when dispatch is
				// order-preserving, so compare positionally.
				for i := range idx {
					if idx[i] != lin[i] {
						t.Fatalf("answer %d differs:\n index: %s\n linear: %s", i, idx[i], lin[i])
					}
				}
			})
		}
	}
}
