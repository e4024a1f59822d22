package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/term"
)

// FuzzMemoKey proves the memo-key encoding injective against the interned
// ground-term codes: two call literals get the same key if and only if
// they have the same predicate, arity, and argument pattern — pairwise
// equal ground terms (by term.Intern code) and the same first-occurrence
// variable structure. A collision here would let one call replay another
// call's answers; a spurious split only costs a duplicate fill.
func FuzzMemoKey(f *testing.F) {
	f.Add("p(a, b)", "p(a, b)")
	f.Add("p(X, Y)", "p(X, X)")
	f.Add("p(X, Y)", "p(A, B)")
	f.Add("reach(a, X)", "reach(X, a)")
	f.Add("p(a)", "pa()")
	f.Add("p(1, \"s\")", "p(\"1\", s)")
	f.Add("q(X, a, X, Y)", "q(Y, a, Y, X)")
	f.Add("p(12345678901234567890)", "p(12345678901234567891)")
	f.Fuzz(func(t *testing.T, srcA, srcB string) {
		ga, ok := fuzzCallLit(srcA)
		if !ok {
			return
		}
		gb, ok := fuzzCallLit(srcB)
		if !ok {
			return
		}
		e, d := memoSetup(t, "base(zzz). derived(X) :- base(X).", nil)
		if e.memo == nil {
			t.Fatal("memo not enabled")
		}
		dv := newDeriv(e, d, ga)
		defer dv.release()
		keyA, _ := dv.appendMemoKey(nil, ga, nil)
		keyB, _ := dv.appendMemoKey(nil, gb, nil)
		same := string(keyA) == string(keyB)
		want := memoPattern(dv, ga) == memoPattern(dv, gb)
		if same != want {
			t.Fatalf("key equality %v but pattern equality %v:\n a: %s -> %x\n b: %s -> %x",
				same, want, srcA, keyA, srcB, keyB)
		}
	})
}

// fuzzCallLit parses src as a single call literal, rejecting inputs that
// are not a plain atom call.
func fuzzCallLit(src string) (*ast.Lit, bool) {
	g, _, err := parser.ParseGoal(src, 1000)
	if err != nil {
		return nil, false
	}
	lit, ok := g.(*ast.Lit)
	if !ok || lit.Op != ast.OpCall {
		return nil, false
	}
	return lit, true
}

// memoPattern renders the semantic identity a memo key must capture:
// predicate, arity, and per-argument either the interned ground code or
// the variable's first-occurrence index.
func memoPattern(dv *deriv, g *ast.Lit) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d:%s", len(g.Atom.Args), g.Atom.Pred)
	var vars []term.Term
	for _, a := range g.Atom.Args {
		w := dv.env.Walk(a)
		if !w.IsVar() {
			fmt.Fprintf(&b, "|g%x", w.Code())
			continue
		}
		idx := -1
		for j := range vars {
			if vars[j].VarID() == w.VarID() {
				idx = j
				break
			}
		}
		if idx < 0 {
			idx = len(vars)
			vars = append(vars, w)
		}
		fmt.Fprintf(&b, "|v%d", idx)
	}
	return b.String()
}
