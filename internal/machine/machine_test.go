package machine

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/parser"
)

// --- Two-stack machine model -------------------------------------------------

func TestParitySimulator(t *testing.T) {
	m := Parity()
	for n := 0; n <= 8; n++ {
		res, err := m.Run(Ones(n), 1000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted != (n%2 == 0) {
			t.Errorf("parity(%d) = %v", n, res.Accepted)
		}
	}
}

func TestDyckSimulator(t *testing.T) {
	cases := []struct {
		w    []string
		want bool
	}{
		{nil, true},
		{[]string{"l", "r"}, true},
		{[]string{"l", "l", "r", "r"}, true},
		{[]string{"l", "r", "l", "r"}, true},
		{[]string{"r", "l"}, false},
		{[]string{"l"}, false},
		{[]string{"l", "r", "r"}, false},
		{Nested(5), true},
		{Alternating(5), true},
	}
	m := Dyck()
	for _, c := range cases {
		res, err := m.Run(c.w, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted != c.want {
			t.Errorf("dyck(%v) = %v, want %v", c.w, res.Accepted, c.want)
		}
	}
}

func TestCopySimulatorReverses(t *testing.T) {
	m := Copy()
	res, err := m.Run([]string{"a", "b", "b"}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("copy rejected")
	}
	// Stack 2 holds the input with the first symbol pushed first: reading
	// bottom-to-top gives the original order a b b.
	want := []string{"a", "b", "b"}
	if len(res.Stack2) != len(want) {
		t.Fatalf("stack2 = %v", res.Stack2)
	}
	for i := range want {
		if res.Stack2[i] != want[i] {
			t.Fatalf("stack2 = %v, want %v", res.Stack2, want)
		}
	}
}

func TestDivergeHitsStepLimit(t *testing.T) {
	if _, err := Diverge().Run(nil, 100); !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}

func TestMachineValidation(t *testing.T) {
	bad := []struct {
		name   string
		start  string
		instrs []Instr
	}{
		{"undefined start", "nowhere", []Instr{{Label: "a", Kind: IAccept}}},
		{"dup label", "a", []Instr{{Label: "a", Kind: IAccept}, {Label: "a", Kind: IReject}}},
		{"push bottom", "a", []Instr{{Label: "a", Kind: IPush, Stack: S1, Sym: Bottom, Next: "a"}}},
		{"bad target", "a", []Instr{{Label: "a", Kind: IPush, Stack: S1, Sym: "x", Next: "b"}}},
		{"empty branch", "a", []Instr{{Label: "a", Kind: IPop, Stack: S1}}},
	}
	for _, c := range bad {
		if _, err := NewMachine(c.name, c.start, c.instrs); err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

// --- Compilation to TD: the Theorem 4.4 construction ---------------------------

// proveTD compiles m, loads input, and proves the run goal.
func proveTD(t *testing.T, m *Machine, input []string, maxSteps int64) bool {
	t.Helper()
	src, goalSrc, err := Source(m, input)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("generated program does not parse: %v\n%s", err, src)
	}
	goal, _, err := parser.ParseGoal(goalSrc, prog.VarHigh)
	if err != nil {
		t.Fatal(err)
	}
	d, err := db.FromFacts(prog.Facts)
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.Options{MaxSteps: maxSteps, LoopCheck: true, Table: true}
	res, err := engine.New(prog, opts).Prove(goal, d)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	return res.Success
}

func TestCompiledParityMatchesSimulator(t *testing.T) {
	m := Parity()
	for n := 0; n <= 6; n++ {
		want := n%2 == 0
		if got := proveTD(t, m, Ones(n), 3_000_000); got != want {
			t.Errorf("TD parity(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestCompiledDyckMatchesSimulator(t *testing.T) {
	m := Dyck()
	cases := [][]string{
		nil,
		{"l", "r"},
		{"r"},
		{"l"},
		{"l", "l", "r", "r"},
		{"l", "r", "r"},
		Nested(3),
		Alternating(3),
	}
	for _, w := range cases {
		sim, err := m.Run(w, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if got := proveTD(t, m, w, 5_000_000); got != sim.Accepted {
			t.Errorf("TD dyck(%v) = %v, simulator %v", w, got, sim.Accepted)
		}
	}
}

func TestCompiledCopyDeepStacks(t *testing.T) {
	if !proveTD(t, Copy(), ABWord(10), 5_000_000) {
		t.Fatal("TD copy rejected")
	}
}

// Property: on random Dyck-alphabet words, the TD compilation agrees with
// the direct simulator.
func TestCompiledDyckAgreesRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m := Dyck()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(6)
		w := make([]string, n)
		for i := range w {
			if r.Intn(2) == 0 {
				w[i] = "l"
			} else {
				w[i] = "r"
			}
		}
		sim, err := m.Run(w, 100000)
		if err != nil {
			return false
		}
		src, goalSrc, err := Source(m, w)
		if err != nil {
			return false
		}
		prog, err := parser.Parse(src)
		if err != nil {
			return false
		}
		goal, _, _ := parser.ParseGoal(goalSrc, prog.VarHigh)
		d, _ := db.FromFacts(prog.Facts)
		res, err := engine.New(prog, engine.Options{MaxSteps: 5_000_000, LoopCheck: true, Table: true}).Prove(goal, d)
		if err != nil {
			return false
		}
		return res.Success == sim.Accepted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCompiledProgramIsCorollary46Shape(t *testing.T) {
	// The generated rulebase must be sequential except for the single run
	// rule composing three processes; recursion must be non-tail (stacks).
	c, err := Compile(Dyck())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(c.RulesSrc)
	if err != nil {
		t.Fatal(err)
	}
	r := analysis.Analyze(prog).Classify()
	if r.Fragment != analysis.Full {
		t.Fatalf("fragment = %v, want Full", r.Fragment)
	}
	if !r.Features.Recursive || r.Features.TailOnlyRecursion {
		t.Fatalf("stack recursion shape wrong: %+v", r.Features)
	}
}

func TestCompileRejectsBadSymbols(t *testing.T) {
	m, err := NewMachine("bad", "s", []Instr{
		{Label: "s", Kind: IPush, Stack: S1, Sym: "Bad_Sym", Next: "s"},
	})
	if err == nil {
		if _, err := Compile(m); err == nil {
			t.Fatal("compile accepted invalid symbol")
		}
	}
}

func TestInputFactsRejectBadSymbols(t *testing.T) {
	if _, err := InputFacts([]string{"OK"}); err == nil {
		t.Fatal("uppercase symbol accepted")
	}
	if _, err := InputFacts([]string{Bottom}); err == nil {
		t.Fatal("bottom marker accepted as input")
	}
}

// --- QBF -----------------------------------------------------------------------

func TestQBFEvalOracle(t *testing.T) {
	// ∃x (x) — true.
	q1 := &QBF{Prefix: []Quant{Exists}, Clauses: [][]Lit{{{Var: 1}}}}
	if !q1.Eval() {
		t.Error("∃x.x should be true")
	}
	// ∀x (x) — false.
	q2 := &QBF{Prefix: []Quant{Forall}, Clauses: [][]Lit{{{Var: 1}}}}
	if q2.Eval() {
		t.Error("∀x.x should be false")
	}
	// ∀x∃y (x↔y) — true.
	if !AlternatingQBF(1).Eval() {
		t.Error("∀x∃y x↔y should be true")
	}
	// ∀x∀y (x∨y) — false.
	q4 := &QBF{Prefix: []Quant{Forall, Forall}, Clauses: [][]Lit{{{Var: 1}, {Var: 2}}}}
	if q4.Eval() {
		t.Error("∀x∀y x∨y should be false")
	}
	// Empty matrix is true; empty clause is false.
	q5 := &QBF{Prefix: []Quant{Forall}}
	if !q5.Eval() {
		t.Error("empty matrix should be true")
	}
	q6 := &QBF{Prefix: []Quant{Exists}, Clauses: [][]Lit{{}}}
	if q6.Eval() {
		t.Error("empty clause should be false")
	}
}

func proveQBF(t *testing.T, q *QBF) bool {
	t.Helper()
	facts, err := QBFFacts(q)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(QBFRules + facts)
	if err != nil {
		t.Fatal(err)
	}
	goal, _, _ := parser.ParseGoal(QBFGoal, prog.VarHigh)
	d, _ := db.FromFacts(prog.Facts)
	res, err := engine.New(prog, engine.Options{MaxSteps: 20_000_000, LoopCheck: true, Table: true}).Prove(goal, d)
	if err != nil {
		t.Fatal(err)
	}
	return res.Success
}

func TestQBFTDMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		q := RandomQBF(rng, 2+rng.Intn(3), 1+rng.Intn(4), 2, 0.5)
		want := q.Eval()
		if got := proveQBF(t, q); got != want {
			facts, _ := QBFFacts(q)
			t.Fatalf("case %d: TD=%v oracle=%v\n%s", i, got, want, facts)
		}
	}
}

func TestQBFAlternatingFamilyTrue(t *testing.T) {
	for k := 1; k <= 3; k++ {
		if !AlternatingQBF(k).Eval() {
			t.Fatalf("AlternatingQBF(%d) oracle false", k)
		}
		if !proveQBF(t, AlternatingQBF(k)) {
			t.Fatalf("AlternatingQBF(%d) TD false", k)
		}
	}
}

func TestQBFRulesAreSequentialFragment(t *testing.T) {
	prog, err := parser.Parse(QBFRules)
	if err != nil {
		t.Fatal(err)
	}
	r := analysis.Analyze(prog).Classify()
	if r.Fragment != analysis.Sequential {
		t.Fatalf("QBF program fragment = %v, want Sequential (features %+v)", r.Fragment, r.Features)
	}
	if r.Features.UsesConcurrency {
		t.Fatal("QBF program must not use |")
	}
}

// --- SAT -----------------------------------------------------------------------

func TestSATBruteForce(t *testing.T) {
	c := &CNF{N: 2, Clauses: [][]Lit{
		{{Var: 1}}, {{Var: 1, Neg: true}, {Var: 2}},
	}}
	asg, ok := c.BruteForce()
	if !ok || !asg[1] || !asg[2] {
		t.Fatalf("brute force: %v %v", asg, ok)
	}
	uns := &CNF{N: 1, Clauses: [][]Lit{{{Var: 1}}, {{Var: 1, Neg: true}}}}
	if _, ok := uns.BruteForce(); ok {
		t.Fatal("x ∧ ¬x declared satisfiable")
	}
}

func proveSAT(t *testing.T, c *CNF) bool {
	t.Helper()
	facts, err := SATFacts(c)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(SATRules + facts)
	if err != nil {
		t.Fatal(err)
	}
	goal, _, _ := parser.ParseGoal(SATGoal, prog.VarHigh)
	d, _ := db.FromFacts(prog.Facts)
	res, err := engine.New(prog, engine.Options{MaxSteps: 20_000_000, LoopCheck: true, Table: true}).Prove(goal, d)
	if err != nil {
		t.Fatal(err)
	}
	return res.Success
}

func TestSATTDMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		c := RandomCNF(rng, 2+rng.Intn(4), 1+rng.Intn(6), 2)
		_, want := c.BruteForce()
		if got := proveSAT(t, c); got != want {
			facts, _ := SATFacts(c)
			t.Fatalf("case %d: TD=%v oracle=%v\n%s", i, got, want, facts)
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	c := PigeonholeCNF(2)
	if _, ok := c.BruteForce(); ok {
		t.Fatal("pigeonhole(2) satisfiable?!")
	}
	if proveSAT(t, c) {
		t.Fatal("TD satisfied pigeonhole(2)")
	}
}

func TestSATRulesAreFullyBounded(t *testing.T) {
	prog, err := parser.Parse(SATRules)
	if err != nil {
		t.Fatal(err)
	}
	r := analysis.Analyze(prog).Classify()
	if r.Fragment != analysis.FullyBounded && r.Fragment != analysis.InsOnly {
		t.Fatalf("SAT program fragment = %v, want FullyBounded or InsOnly (features %+v)", r.Fragment, r.Features)
	}
	if !r.Features.TailOnlyRecursion {
		t.Fatalf("SAT program must be tail-recursive only: %+v", r.Features)
	}
}

func TestValidationErrors(t *testing.T) {
	q := &QBF{Prefix: []Quant{Exists}, Clauses: [][]Lit{{{Var: 9}}}}
	if _, err := QBFFacts(q); err == nil {
		t.Error("QBFFacts accepted out-of-range variable")
	}
	c := &CNF{N: 1, Clauses: [][]Lit{{{Var: 0}}}}
	if _, err := SATFacts(c); err == nil {
		t.Error("SATFacts accepted out-of-range variable")
	}
}
