package parser

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/term"
)

func TestParseFacts(t *testing.T) {
	prog, err := Parse(`
		tel(mary, 1234).
		tel(bob, 5678).
		ready.
		msg("hello world").
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Facts) != 4 {
		t.Fatalf("got %d facts, want 4", len(prog.Facts))
	}
	if prog.Facts[0].String() != "tel(mary, 1234)" {
		t.Errorf("fact 0 = %s", prog.Facts[0])
	}
	if prog.Facts[2].String() != "ready" {
		t.Errorf("fact 2 = %s", prog.Facts[2])
	}
	if prog.Facts[3].Args[0].StrVal() != "hello world" {
		t.Errorf("string fact = %v", prog.Facts[3])
	}
}

func TestParseRuleSequential(t *testing.T) {
	prog, err := Parse(`r(X) :- p(X), del.p(X), ins.q(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 1 {
		t.Fatalf("got %d rules", len(prog.Rules))
	}
	r := prog.Rules[0]
	if r.Head.String() != "r(X)" {
		t.Errorf("head = %s", r.Head)
	}
	seq, ok := r.Body.(*ast.Seq)
	if !ok {
		t.Fatalf("body is %T, want *Seq", r.Body)
	}
	if len(seq.Goals) != 3 {
		t.Fatalf("seq has %d goals", len(seq.Goals))
	}
	// p has no rules, so after Analyze the call resolves to a query.
	q := seq.Goals[0].(*ast.Lit)
	if q.Op != ast.OpQuery {
		t.Errorf("first literal op = %v, want query", q.Op)
	}
	d := seq.Goals[1].(*ast.Lit)
	if d.Op != ast.OpDel || d.Atom.Pred != "p" {
		t.Errorf("second literal = %v", d)
	}
	i := seq.Goals[2].(*ast.Lit)
	if i.Op != ast.OpIns || i.Atom.Pred != "q" {
		t.Errorf("third literal = %v", i)
	}
}

func TestParsePrecedenceBarLoosest(t *testing.T) {
	prog, err := Parse(`w :- a, b | c, d.`)
	if err != nil {
		t.Fatal(err)
	}
	conc, ok := prog.Rules[0].Body.(*ast.Conc)
	if !ok {
		t.Fatalf("body is %T, want *Conc", prog.Rules[0].Body)
	}
	if len(conc.Goals) != 2 {
		t.Fatalf("conc arity %d, want 2", len(conc.Goals))
	}
	for i, g := range conc.Goals {
		if _, ok := g.(*ast.Seq); !ok {
			t.Errorf("conc branch %d is %T, want *Seq", i, g)
		}
	}
}

func TestParseParensOverride(t *testing.T) {
	prog, err := Parse(`w :- a, (b | c), d.`)
	if err != nil {
		t.Fatal(err)
	}
	seq, ok := prog.Rules[0].Body.(*ast.Seq)
	if !ok {
		t.Fatalf("body is %T, want *Seq", prog.Rules[0].Body)
	}
	if len(seq.Goals) != 3 {
		t.Fatalf("seq arity %d", len(seq.Goals))
	}
	if _, ok := seq.Goals[1].(*ast.Conc); !ok {
		t.Errorf("middle goal is %T, want *Conc", seq.Goals[1])
	}
}

func TestParseIso(t *testing.T) {
	prog, err := Parse(`m :- iso(a, b) | iso(c).`)
	if err != nil {
		t.Fatal(err)
	}
	conc := prog.Rules[0].Body.(*ast.Conc)
	iso0, ok := conc.Goals[0].(*ast.Iso)
	if !ok {
		t.Fatalf("branch 0 is %T", conc.Goals[0])
	}
	if _, ok := iso0.Body.(*ast.Seq); !ok {
		t.Errorf("iso body is %T, want *Seq", iso0.Body)
	}
}

func TestIsoAsPredicateName(t *testing.T) {
	// "iso" not followed by '(' is an ordinary atom.
	prog, err := Parse(`m :- iso.`)
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := prog.Rules[0].Body.(*ast.Lit)
	if !ok || lit.Atom.Pred != "iso" {
		t.Fatalf("body = %v (%T)", prog.Rules[0].Body, prog.Rules[0].Body)
	}
}

func TestParseEmptyTest(t *testing.T) {
	prog, err := Parse(`quiet :- empty.busy.`)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := prog.Rules[0].Body.(*ast.Empty)
	if !ok || e.Pred != "busy" {
		t.Fatalf("body = %v (%T)", prog.Rules[0].Body, prog.Rules[0].Body)
	}
}

func TestParseComparisonsAndArith(t *testing.T) {
	prog, err := Parse(`
		ok(B, A) :- B > A, B >= 0, A < 10, A =< 9, B != 3, sub(B, A, C), C = 1.
	`)
	if err != nil {
		t.Fatal(err)
	}
	seq := prog.Rules[0].Body.(*ast.Seq)
	wantNames := []string{"gt", "ge", "lt", "le", "neq", "sub", "eq"}
	if len(seq.Goals) != len(wantNames) {
		t.Fatalf("got %d goals, want %d", len(seq.Goals), len(wantNames))
	}
	for i, g := range seq.Goals {
		b, ok := g.(*ast.Builtin)
		if !ok {
			t.Fatalf("goal %d is %T, want *Builtin", i, g)
		}
		if b.Name != wantNames[i] {
			t.Errorf("goal %d name = %s, want %s", i, b.Name, wantNames[i])
		}
	}
}

func TestParseSymbolComparison(t *testing.T) {
	prog, err := Parse(`distinct(X) :- agent(X), X != bob.`)
	if err != nil {
		t.Fatal(err)
	}
	seq := prog.Rules[0].Body.(*ast.Seq)
	b := seq.Goals[1].(*ast.Builtin)
	if b.Name != "neq" || !b.Args[1].Equal(term.NewSym("bob")) {
		t.Fatalf("builtin = %v", b)
	}
}

func TestParseQueryDirective(t *testing.T) {
	prog, err := Parse(`
		p(a).
		?- p(X), ins.q(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Queries) != 1 {
		t.Fatalf("got %d queries", len(prog.Queries))
	}
	seq := prog.Queries[0].(*ast.Seq)
	if lit := seq.Goals[0].(*ast.Lit); lit.Op != ast.OpQuery {
		t.Errorf("query atom resolved to %v", lit.Op)
	}
}

func TestVariableScopePerClause(t *testing.T) {
	prog, err := Parse(`
		r1(X) :- p(X).
		r2(X) :- q(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	v1 := prog.Rules[0].Head.Args[0]
	v2 := prog.Rules[1].Head.Args[0]
	if v1.Equal(v2) {
		t.Fatal("X in different clauses must get different ids")
	}
	if prog.VarHigh < 2 {
		t.Fatalf("VarHigh = %d, want >= 2", prog.VarHigh)
	}
}

func TestUnderscoreAlwaysFresh(t *testing.T) {
	prog, err := Parse(`r :- p(_, _).`)
	if err != nil {
		t.Fatal(err)
	}
	lit := prog.Rules[0].Body.(*ast.Lit)
	if lit.Atom.Args[0].Equal(lit.Atom.Args[1]) {
		t.Fatal("two _ occurrences must be distinct variables")
	}
}

func TestSameVarSharedWithinClause(t *testing.T) {
	prog, err := Parse(`r(X) :- p(X), q(X).`)
	if err != nil {
		t.Fatal(err)
	}
	head := prog.Rules[0].Head.Args[0]
	seq := prog.Rules[0].Body.(*ast.Seq)
	a := seq.Goals[0].(*ast.Lit).Atom.Args[0]
	b := seq.Goals[1].(*ast.Lit).Atom.Args[0]
	if !head.Equal(a) || !a.Equal(b) {
		t.Fatal("X occurrences within a clause must share an id")
	}
}

func TestComments(t *testing.T) {
	prog, err := Parse(`
		% line comment
		p(a). // another comment style
		/* block
		   comment */ p(b).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Facts) != 2 {
		t.Fatalf("got %d facts, want 2", len(prog.Facts))
	}
}

func TestParseGoalStandalone(t *testing.T) {
	g, high, err := ParseGoal(`p(X), ins.q(X)`, 100)
	if err != nil {
		t.Fatal(err)
	}
	if high != 101 {
		t.Errorf("high = %d, want 101", high)
	}
	seq, ok := g.(*ast.Seq)
	if !ok || len(seq.Goals) != 2 {
		t.Fatalf("goal = %v", g)
	}
	if id := seq.Goals[0].(*ast.Lit).Atom.Args[0].VarID(); id != 100 {
		t.Errorf("var id = %d, want 100", id)
	}
	// Trailing dot is accepted too.
	if _, _, err := ParseGoal(`p(a).`, 0); err != nil {
		t.Errorf("trailing dot rejected: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{`p(X).`, "must be ground"},
		{`p(a)`, "expected '.'"},
		{`:- p.`, "expected predicate name"},
		{`r :- .`, "expected a goal"},
		{`r :- (p.`, "expected ')'"},
		{`r :- p(a,).`, "expected a term"},
		{`r :- X.`, "expected comparison operator"},
		{`msg("unterminated).`, "unterminated string"},
		{`p(a)$`, "unexpected character"},
		{`lt(1,2) :- true.`, "builtin"},
		{`ins.lt(1,2).`, "expected predicate name"}, // ins.lt is a goal form, not a fact
		{`r :- ins.r2. r2 :- true. r :- ins.r2.`, ""},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if c.wantSub == "" {
			continue
		}
		if err == nil {
			t.Errorf("Parse(%q): expected error containing %q, got nil", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q): error %q does not contain %q", c.src, err, c.wantSub)
		}
	}
}

func TestUpdateDerivedPredicateRejected(t *testing.T) {
	_, err := Parse(`
		r :- true.
		bad :- ins.r.
	`)
	if err == nil || !strings.Contains(err.Error(), "derived") {
		t.Fatalf("expected derived-update error, got %v", err)
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := Parse("p(a).\n  q(b)$.")
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if perr.Line != 2 {
		t.Errorf("error line = %d, want 2", perr.Line)
	}

	// Semantic errors in multi-line clause bodies must point at the
	// offending literal, not the clause head (regression: Analyze-time
	// errors used to carry no position at all).
	_, err = Parse("r2 :- true.\nr :- q(a),\n    ins.r2.")
	perr, ok = err.(*Error)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if perr.Line != 3 {
		t.Errorf("derived-update error line = %d, want 3 (the ins.r2 literal)", perr.Line)
	}
	if perr.Col != 5 {
		t.Errorf("derived-update error col = %d, want 5", perr.Col)
	}

	// Non-ground facts are reported at the fact's own head token.
	_, err = Parse("p(a).\n\nq(X).")
	perr, ok = err.(*Error)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if perr.Line != 3 || perr.Col != 1 {
		t.Errorf("non-ground fact error at %d:%d, want 3:1", perr.Line, perr.Col)
	}
}

func TestLiteralPositions(t *testing.T) {
	prog, err := Parse("p(a).\nr(X) :- p(X),\n    del.p(X), X > 0.\n?- r(a).")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 1 {
		t.Fatalf("rules = %d, want 1", len(prog.Rules))
	}
	r := prog.Rules[0]
	if r.Pos != (ast.Pos{Line: 2, Col: 1}) {
		t.Errorf("rule head pos = %v, want 2:1", r.Pos)
	}
	if len(prog.FactPos) != 1 || prog.FactPos[0] != (ast.Pos{Line: 1, Col: 1}) {
		t.Errorf("fact pos = %v, want [1:1]", prog.FactPos)
	}
	seq, ok := r.Body.(*ast.Seq)
	if !ok {
		t.Fatalf("body type %T", r.Body)
	}
	wants := []ast.Pos{{Line: 2, Col: 9}, {Line: 3, Col: 5}, {Line: 3, Col: 15}}
	for i, g := range seq.Goals {
		var got ast.Pos
		switch g := g.(type) {
		case *ast.Lit:
			got = g.Pos
		case *ast.Builtin:
			got = g.Pos
		default:
			t.Fatalf("goal %d type %T", i, g)
		}
		if got != wants[i] {
			t.Errorf("literal %d pos = %v, want %v", i, got, wants[i])
		}
	}
}

func TestPragmaCollection(t *testing.T) {
	src := "p(a). % tdvet:ignore unused-pred\n" +
		"% tdvet:ignore\n" +
		"q(b).\n" +
		"// tdvet:ignore safety dead-clause (trailing prose)\n" +
		"% a plain comment\n"
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []ast.Pragma{
		{Line: 1, IDs: []string{"unused-pred"}},
		{Line: 2, IDs: nil},
		{Line: 4, IDs: []string{"safety", "dead-clause"}},
	}
	if len(prog.Pragmas) != len(want) {
		t.Fatalf("pragmas = %+v, want %+v", prog.Pragmas, want)
	}
	for i, pr := range prog.Pragmas {
		if pr.Line != want[i].Line || !slices.Equal(pr.IDs, want[i].IDs) {
			t.Errorf("pragma %d = %+v, want %+v", i, pr, want[i])
		}
	}
}

func TestRoundTripThroughString(t *testing.T) {
	src := `
		account(alice, 100).
		withdraw(A, Amt) :- account(A, B), B >= Amt, del.account(A, B), sub(B, Amt, C), ins.account(A, C).
		transfer(A, B2, Amt) :- withdraw(A, Amt) , deposit(B2, Amt).
		deposit(A, Amt) :- account(A, B), del.account(A, B), add(B, Amt, C), ins.account(A, C).
		main :- iso(transfer(alice, bob, 10)) | iso(transfer(bob, alice, 5)).
	`
	p1, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	printed := p1.String()
	p2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse of printed program failed: %v\n%s", err, printed)
	}
	if p2.String() != printed {
		t.Errorf("print/parse/print not stable:\n%s\nvs\n%s", printed, p2.String())
	}
}

func TestInsDotRequiresAdjacency(t *testing.T) {
	// "ins . p" with spaces is NOT an insertion; it parses as atom ins then
	// a statement dot, then a fact p — legal but different.
	prog, err := Parse(`r :- ins. p(a).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 1 || len(prog.Facts) != 1 {
		t.Fatalf("rules=%d facts=%d", len(prog.Rules), len(prog.Facts))
	}
	lit := prog.Rules[0].Body.(*ast.Lit)
	if lit.Atom.Pred != "ins" || lit.Op != ast.OpQuery {
		t.Fatalf("body = %v", lit)
	}
}

func TestNegativeIntegers(t *testing.T) {
	prog, err := Parse(`delta(-5).`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Facts[0].Args[0].IntVal() != -5 {
		t.Fatalf("fact = %v", prog.Facts[0])
	}
}

func TestQueriesSurviveRoundTrip(t *testing.T) {
	prog, err := Parse("p(a).\n?- p(X), ins.q(X).\n?- p(a) | p(a).\n")
	if err != nil {
		t.Fatal(err)
	}
	printed := prog.String()
	prog2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, printed)
	}
	if len(prog2.Queries) != 2 {
		t.Fatalf("queries lost in round trip: %d\n%s", len(prog2.Queries), printed)
	}
	if prog2.String() != printed {
		t.Fatalf("not stable:\n%s\nvs\n%s", printed, prog2.String())
	}
}

// Goal nesting is bounded: a goal nested millions of levels deep, which
// would overflow the Go stack in the recursive descent, is a positioned
// error at the first '(' or 'iso' past the bound, and moderate nesting
// still parses, in goals and in rule bodies alike.
func TestGoalNestingBounded(t *testing.T) {
	nested := func(open, close string, n int) string {
		return strings.Repeat(open, n) + "a" + strings.Repeat(close, n)
	}
	for _, tc := range []struct {
		name        string
		open, close string
		n           int
		wantCol     int // 0: parses
	}{
		{"parens 100", "(", ")", 100, 0},
		{"iso 100", "iso(", ")", 100, 0},
		{"parens at the bound", "(", ")", maxGoalDepth, 0},
		{"parens 4M", "(", ")", 4 << 20, maxGoalDepth + 1},
		{"iso past the bound", "iso(", ")", maxGoalDepth + 1, 4*maxGoalDepth + 1},
	} {
		src := nested(tc.open, tc.close, tc.n)
		_, _, err := ParseGoal(src, 0)
		_, perr := Parse("r :- " + src + ".")
		if tc.wantCol == 0 {
			if err != nil || perr != nil {
				t.Errorf("%s: ParseGoal: %v; Parse: %v", tc.name, err, perr)
			}
			continue
		}
		var pe *Error
		if !errors.As(err, &pe) || pe.Line != 1 || pe.Col != tc.wantCol || !strings.Contains(pe.Msg, "nested deeper") {
			t.Errorf("%s: ParseGoal error = %v, want 1:%d: goal nested deeper …", tc.name, err, tc.wantCol)
		}
		if !errors.As(perr, &pe) || pe.Col != tc.wantCol+len("r :- ") {
			t.Errorf("%s: Parse error = %v, want column %d", tc.name, perr, tc.wantCol+len("r :- "))
		}
	}
}
