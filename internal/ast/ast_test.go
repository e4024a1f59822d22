package ast

import (
	"reflect"
	"testing"

	"repro/internal/term"
)

func lit(op AtomOp, pred string, args ...term.Term) *Lit {
	return &Lit{Op: op, Atom: term.Atom{Pred: pred, Args: args}}
}

func TestNewSeqFlattens(t *testing.T) {
	a := lit(OpQuery, "a")
	b := lit(OpQuery, "b")
	c := lit(OpQuery, "c")
	g := NewSeq(a, NewSeq(b, c))
	seq, ok := g.(*Seq)
	if !ok || len(seq.Goals) != 3 {
		t.Fatalf("NewSeq did not flatten: %v", g)
	}
	if NewSeq() != (True{}) {
		t.Error("empty NewSeq != True")
	}
	if NewSeq(a) != Goal(a) {
		t.Error("singleton NewSeq should return the goal")
	}
	if NewSeq(True{}, a, True{}) != Goal(a) {
		t.Error("True units not dropped")
	}
}

func TestNewConcFlattens(t *testing.T) {
	a := lit(OpQuery, "a")
	b := lit(OpQuery, "b")
	g := NewConc(a, NewConc(b, True{}))
	conc, ok := g.(*Conc)
	if !ok || len(conc.Goals) != 2 {
		t.Fatalf("NewConc wrong: %v", g)
	}
	if NewConc() != (True{}) {
		t.Error("empty NewConc != True")
	}
}

// The residual constructors are NewSeq/NewConc specialised to one stepped
// component: over normal-form inputs they build the same tree, leave their
// inputs unwritten, and share the tail of a sequence whose head finished.
func TestResidualsAgreeWithConstructors(t *testing.T) {
	a, b, c, d := lit(OpQuery, "a"), lit(OpQuery, "b"), lit(OpQuery, "c"), lit(OpQuery, "d")
	residuals := []Goal{True{}, d, NewSeq(c, d), NewConc(c, d), &Iso{Body: NewSeq(c, d)}}
	for _, rest := range [][]Goal{{}, {a}, {a, b}, {NewConc(a, b), c}} {
		for _, res := range residuals {
			kept := append([]Goal(nil), rest...)
			got := SeqResidual(res, rest)
			want := NewSeq(append([]Goal{res}, rest...)...)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("SeqResidual(%v, %v) = %v, NewSeq gives %v", res, rest, got, want)
			}
			for i := range rest {
				if rest[i] != kept[i] {
					t.Fatalf("SeqResidual(%v, %v) wrote its input", res, kept)
				}
			}
		}
	}
	tail := []Goal{a, b, c}
	if seq, ok := SeqResidual(True{}, tail[1:]).(*Seq); !ok || &seq.Goals[0] != &tail[1] {
		t.Error("a finished head does not share the sequence's tail")
	}
	for _, branches := range [][]Goal{{a}, {a, b}, {a, NewSeq(b, c)}, {a, b, c}} {
		for i := range branches {
			for _, res := range residuals {
				kept := append([]Goal(nil), branches...)
				got := ConcResidual(branches, i, res)
				replaced := append([]Goal(nil), branches...)
				replaced[i] = res
				want := NewConc(replaced...)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("ConcResidual(%v, %d, %v) = %v, NewConc gives %v", branches, i, res, got, want)
				}
				for j := range branches {
					if branches[j] != kept[j] {
						t.Fatalf("ConcResidual(%v, %d, %v) wrote its input", kept, i, res)
					}
				}
			}
		}
	}
}

func TestGoalStrings(t *testing.T) {
	x := term.NewVar("X", 0)
	cases := []struct {
		g    Goal
		want string
	}{
		{True{}, "true"},
		{lit(OpQuery, "p", x), "p(X)"},
		{lit(OpIns, "p", x), "ins.p(X)"},
		{lit(OpDel, "q"), "del.q"},
		{&Empty{Pred: "busy"}, "empty.busy"},
		{&Builtin{Name: "lt", Args: []term.Term{x, term.NewInt(3)}}, "X < 3"},
		{&Builtin{Name: "add", Args: []term.Term{x, x, x}}, "add(X, X, X)"},
		{NewSeq(lit(OpQuery, "a"), lit(OpQuery, "b")), "a, b"},
		{NewConc(lit(OpQuery, "a"), lit(OpQuery, "b")), "a | b"},
		{NewSeq(lit(OpQuery, "a"), NewConc(lit(OpQuery, "b"), lit(OpQuery, "c"))), "a, (b | c)"},
		{&Iso{Body: lit(OpQuery, "a")}, "iso(a)"},
	}
	for _, c := range cases {
		if got := c.g.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestWalkVisitsAll(t *testing.T) {
	g := NewSeq(
		lit(OpQuery, "a"),
		NewConc(lit(OpIns, "b"), &Iso{Body: lit(OpDel, "c")}),
	)
	var names []string
	Walk(g, func(sub Goal) bool {
		if l, ok := sub.(*Lit); ok {
			names = append(names, l.Atom.Pred)
		}
		return true
	})
	if len(names) != 3 {
		t.Fatalf("visited %v", names)
	}
}

func TestWalkPrune(t *testing.T) {
	g := NewSeq(lit(OpQuery, "a"), &Iso{Body: lit(OpQuery, "inner")})
	count := 0
	Walk(g, func(sub Goal) bool {
		if _, isIso := sub.(*Iso); isIso {
			return false
		}
		if l, ok := sub.(*Lit); ok && l.Atom.Pred == "inner" {
			count++
		}
		return true
	})
	if count != 0 {
		t.Fatal("pruned subtree was visited")
	}
}

func TestVarsCollect(t *testing.T) {
	x, y := term.NewVar("X", 0), term.NewVar("Y", 1)
	g := NewSeq(
		lit(OpQuery, "p", x),
		&Builtin{Name: "lt", Args: []term.Term{x, y}},
	)
	vs := Vars(g, nil)
	if len(vs) != 2 || !vs[0].Equal(x) || !vs[1].Equal(y) {
		t.Fatalf("Vars = %v", vs)
	}
}

func TestRenamePreservesStructure(t *testing.T) {
	x := term.NewVar("X", 0)
	g := NewSeq(
		lit(OpQuery, "p", x),
		NewConc(lit(OpIns, "q", x), &Iso{Body: &Builtin{Name: "gt", Args: []term.Term{x, term.NewInt(0)}}}),
		&Empty{Pred: "e"},
	)
	ren := term.NewRenamer(100)
	rn := ren.NewRenaming()
	g2 := Rename(g, rn)
	if g2.String() != g.String() {
		t.Fatalf("structure changed: %s vs %s", g2, g)
	}
	// All occurrences of X must map to the SAME fresh variable, different
	// from X.
	vs := Vars(g2, nil)
	if len(vs) != 1 {
		t.Fatalf("renamed vars = %v", vs)
	}
	if vs[0].Equal(x) {
		t.Fatal("rename returned original variable")
	}
}

func TestProgramAnalyzeResolvesCalls(t *testing.T) {
	p := &Program{
		Rules: []Rule{
			{Head: term.NewAtom("r", term.NewVar("X", 0)),
				Body: NewSeq(lit(OpCall, "base", term.NewVar("X", 0)), lit(OpCall, "r2"))},
			{Head: term.NewAtom("r2"), Body: True{}},
		},
	}
	if err := p.Analyze(); err != nil {
		t.Fatal(err)
	}
	seq := p.Rules[0].Body.(*Seq)
	if seq.Goals[0].(*Lit).Op != OpQuery {
		t.Error("rule-less predicate not resolved to query")
	}
	if seq.Goals[1].(*Lit).Op != OpCall {
		t.Error("derived predicate resolved away from call")
	}
	if !p.IsDerived("r2", 0) || p.IsDerived("base", 1) {
		t.Error("IsDerived wrong")
	}
}

func TestProgramAnalyzeBuiltinResolution(t *testing.T) {
	p := &Program{
		Rules: []Rule{
			{Head: term.NewAtom("r"), Body: lit(OpCall, "add", term.NewInt(1), term.NewInt(2), term.NewVar("Z", 0))},
		},
	}
	if err := p.Analyze(); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Rules[0].Body.(*Builtin); !ok {
		t.Fatalf("builtin call not resolved: %T", p.Rules[0].Body)
	}
}

func TestProgramAnalyzeErrors(t *testing.T) {
	cases := []struct {
		name string
		p    *Program
	}{
		{"nonground fact", &Program{Facts: []term.Atom{term.NewAtom("p", term.NewVar("X", 0))}}},
		{"builtin fact", &Program{Facts: []term.Atom{term.NewAtom("lt", term.NewInt(1), term.NewInt(2))}}},
		{"builtin rule head", &Program{Rules: []Rule{{Head: term.NewAtom("lt", term.NewVar("X", 0), term.NewVar("Y", 1)), Body: True{}}}}},
		{"fact for derived", &Program{
			Rules: []Rule{{Head: term.NewAtom("p", term.NewVar("X", 0)), Body: True{}}},
			Facts: []term.Atom{term.NewAtom("p", term.NewSym("a"))},
		}},
		{"update derived", &Program{
			Rules: []Rule{
				{Head: term.NewAtom("q"), Body: True{}},
				{Head: term.NewAtom("r"), Body: lit(OpIns, "q")},
			},
		}},
		{"update builtin", &Program{
			Rules: []Rule{{Head: term.NewAtom("r"), Body: lit(OpIns, "lt", term.NewInt(1), term.NewInt(2))}},
		}},
	}
	for _, c := range cases {
		if err := c.p.Analyze(); err == nil {
			t.Errorf("%s: Analyze accepted invalid program", c.name)
		}
	}
}

func TestRulesForAndPredicates(t *testing.T) {
	x := term.NewVar("X", 0)
	p := &Program{
		Rules: []Rule{
			{Head: term.NewAtom("r", x), Body: True{}},
			{Head: term.NewAtom("r", x), Body: lit(OpCall, "s")},
			{Head: term.NewAtom("s"), Body: True{}},
		},
	}
	if err := p.Analyze(); err != nil {
		t.Fatal(err)
	}
	if got := len(p.RulesFor("r", 1)); got != 2 {
		t.Errorf("RulesFor(r/1) = %d rules", got)
	}
	if got := len(p.RulesFor("r", 2)); got != 0 {
		t.Errorf("RulesFor(r/2) = %d rules", got)
	}
	preds := p.Predicates()
	if len(preds) != 2 {
		t.Errorf("Predicates = %v", preds)
	}
	if ar := p.Arities("r"); len(ar) != 1 || ar[0] != 1 {
		t.Errorf("Arities(r) = %v", ar)
	}
}

func TestEvalBuiltinComparisons(t *testing.T) {
	env := term.NewEnv()
	cases := []struct {
		name string
		a, b int64
		want bool
	}{
		{"lt", 1, 2, true}, {"lt", 2, 2, false},
		{"le", 2, 2, true}, {"le", 3, 2, false},
		{"gt", 3, 2, true}, {"gt", 2, 2, false},
		{"ge", 2, 2, true}, {"ge", 1, 2, false},
	}
	for _, c := range cases {
		ok, err := EvalBuiltin(&Builtin{Name: c.name, Args: []term.Term{term.NewInt(c.a), term.NewInt(c.b)}}, env)
		if err != nil || ok != c.want {
			t.Errorf("%s(%d,%d) = %v, %v", c.name, c.a, c.b, ok, err)
		}
	}
}

func TestEvalBuiltinArith(t *testing.T) {
	env := term.NewEnv()
	z := term.NewVar("Z", 0)
	ok, err := EvalBuiltin(&Builtin{Name: "add", Args: []term.Term{term.NewInt(2), term.NewInt(3), z}}, env)
	if err != nil || !ok || !env.Walk(z).Equal(term.NewInt(5)) {
		t.Fatalf("add: %v %v %v", ok, err, env.Walk(z))
	}
	// Output position can also check: add(2,3,5) holds, add(2,3,6) fails.
	ok, _ = EvalBuiltin(&Builtin{Name: "add", Args: []term.Term{term.NewInt(2), term.NewInt(3), term.NewInt(6)}}, term.NewEnv())
	if ok {
		t.Fatal("add(2,3,6) held")
	}
	for _, c := range []struct {
		name    string
		a, b, z int64
	}{
		{"sub", 5, 3, 2}, {"mul", 4, 3, 12}, {"div", 7, 2, 3}, {"mod", 7, 2, 1},
	} {
		env := term.NewEnv()
		v := term.NewVar("V", 9)
		ok, err := EvalBuiltin(&Builtin{Name: c.name, Args: []term.Term{term.NewInt(c.a), term.NewInt(c.b), v}}, env)
		if err != nil || !ok || !env.Walk(v).Equal(term.NewInt(c.z)) {
			t.Errorf("%s(%d,%d) = %v (ok=%v err=%v)", c.name, c.a, c.b, env.Walk(v), ok, err)
		}
	}
}

func TestEvalBuiltinEqNeq(t *testing.T) {
	env := term.NewEnv()
	x := term.NewVar("X", 0)
	ok, err := EvalBuiltin(&Builtin{Name: "eq", Args: []term.Term{x, term.NewSym("a")}}, env)
	if err != nil || !ok || !env.Walk(x).Equal(term.NewSym("a")) {
		t.Fatal("eq did not bind")
	}
	ok, err = EvalBuiltin(&Builtin{Name: "neq", Args: []term.Term{term.NewSym("a"), term.NewSym("b")}}, env)
	if err != nil || !ok {
		t.Fatal("neq(a,b) failed")
	}
	ok, err = EvalBuiltin(&Builtin{Name: "neq", Args: []term.Term{term.NewSym("a"), term.NewSym("a")}}, env)
	if err != nil || ok {
		t.Fatal("neq(a,a) held")
	}
}

func TestEvalBuiltinErrors(t *testing.T) {
	env := term.NewEnv()
	x := term.NewVar("X", 0)
	errCases := []*Builtin{
		{Name: "nosuch", Args: nil},
		{Name: "lt", Args: []term.Term{term.NewInt(1)}},
		{Name: "lt", Args: []term.Term{x, term.NewInt(1)}},
		{Name: "lt", Args: []term.Term{term.NewSym("a"), term.NewInt(1)}},
		{Name: "div", Args: []term.Term{term.NewInt(1), term.NewInt(0), x}},
		{Name: "mod", Args: []term.Term{term.NewInt(1), term.NewInt(0), x}},
		{Name: "neq", Args: []term.Term{x, term.NewInt(1)}},
	}
	for _, b := range errCases {
		if _, err := EvalBuiltin(b, env); err == nil {
			t.Errorf("EvalBuiltin(%s) did not error", b)
		}
	}
}
