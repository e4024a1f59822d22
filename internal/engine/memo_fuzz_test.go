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

// FuzzMemoUnderWrites drives one tabled engine and its database with a
// script of calls, writes inside and outside the regions the calls read,
// marks and rollbacks — one byte per step — and checks every call's answer
// multiset against an untabled engine on the same database. The seeds run
// as an ordinary test.
func FuzzMemoUnderWrites(f *testing.F) {
	f.Add([]byte{0, 8, 16, 3, 0, 4, 8, 5, 16, 24})
	f.Add([]byte{0, 6, 4, 0, 7, 0, 6, 5, 13, 7, 8})
	f.Add([]byte{24, 4, 24, 12, 24, 4, 24, 3, 11, 19, 24, 0})
	f.Add([]byte{0, 8, 16, 24, 32, 5, 13, 21, 0, 8, 16, 24, 32, 6, 4, 12, 0, 7, 0})
	const src = memoHotProg + `
edge(a, b). edge(b, c). edge(c, d).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
alarm(X) :- reach(X, Y), hot(Y).
edge(d, s1).
`
	goals := []string{"hot(s1)", "hot(S)", "reach(a, Y)", "alarm(b)", "reach(X, s2)"}
	prog := parser.MustParse(src)
	sym, num := term.NewSym, term.NewInt
	// Toggled by the script. None closes a cycle: cyclic data is outside
	// what the untabled engine can be an oracle for.
	inside := [][2]any{
		{"reading", []term.Term{sym("r2"), num(950)}},
		{"reading", []term.Term{sym("r3"), num(990)}},
		{"edge", []term.Term{sym("d"), sym("s2")}},
		{"sample_reading", []term.Term{sym("s2"), sym("r2")}},
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		opts := DefaultOptions()
		opts.Memo = &MemoOptions{Mode: "all"}
		tabled, plain := New(prog, opts), NewDefault(prog)
		d := freshDB(t, prog)
		var marks []int
		for step, b := range script {
			arg := int(b >> 3)
			switch b & 7 {
			case 3: // outside every region: a reading no sample owns
				d.Insert("reading", []term.Term{sym(fmt.Sprintf("x%d", arg)), num(999)})
			case 4, 5: // inside
				u := inside[arg%len(inside)]
				if pred, row := u[0].(string), u[1].([]term.Term); !d.Delete(pred, row) {
					d.Insert(pred, row)
				}
			case 6:
				marks = append(marks, d.Mark())
			case 7:
				if n := len(marks); n > 0 {
					d.Undo(marks[n-1])
					marks = marks[:n-1]
				}
			default:
				g := parser.MustParseGoal(goals[arg%len(goals)], 1000)
				got, _, err := tabled.Solutions(g, d, 0)
				if err != nil {
					t.Fatalf("step %d: tabled %s: %v", step, g, err)
				}
				want, _, err := plain.Solutions(g, d, 0)
				if err != nil {
					t.Fatalf("step %d: untabled %s: %v", step, g, err)
				}
				if a, b := solutionsKey(got), solutionsKey(want); strings.Join(a, "\n") != strings.Join(b, "\n") {
					t.Fatalf("step %d of %v: %s: tabled %v, untabled %v", step, script, g, a, b)
				}
			}
		}
	})
}
