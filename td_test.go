package td_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	td "repro"
)

const bank = `
	account(alice, 100).
	account(bob, 50).
	withdraw(Amt, A) :- account(A, B), B >= Amt, del.account(A, B),
	                    sub(B, Amt, C), ins.account(A, C).
	deposit(Amt, A)  :- account(A, B), del.account(A, B),
	                    add(B, Amt, C), ins.account(A, C).
	transfer(Amt, A, B) :- withdraw(Amt, A), deposit(Amt, B).
`

func ExampleRun() {
	res, final, err := td.Run(bank, `transfer(30, alice, bob)`)
	if err != nil {
		panic(err)
	}
	fmt.Println("committed:", res.Success)
	fmt.Print(final)
	// Output:
	// committed: true
	// account(alice, 70).
	// account(bob, 80).
}

func ExampleRun_abort() {
	// Example 2.2 of the paper: the failing withdraw aborts the whole
	// nested transaction; the database is unchanged.
	res, final, err := td.Run(bank, `transfer(999, alice, bob)`)
	if err != nil {
		panic(err)
	}
	fmt.Println("committed:", res.Success)
	fmt.Print(final)
	// Output:
	// committed: false
	// account(alice, 100).
	// account(bob, 50).
}

func ExampleClassify() {
	prog := td.MustParse(`
		drain :- todo(X), del.todo(X), ins.done(X), drain.
		drain :- empty.todo.
	`)
	report := td.Classify(prog)
	fmt.Println(report.Fragment)
	// Output:
	// fully bounded TD
}

func TestRunBindings(t *testing.T) {
	res, _, err := td.Run(`tel(mary, 1234).`, `tel(mary, N)`)
	if err != nil || !res.Success {
		t.Fatalf("run: %v %v", err, res)
	}
	if res.Bindings["N"].String() != "1234" {
		t.Fatalf("N = %v", res.Bindings["N"])
	}
}

func TestRunParseErrors(t *testing.T) {
	if _, _, err := td.Run(`p(X).`, `p`); err == nil {
		t.Fatal("bad program accepted")
	}
	if _, _, err := td.Run(`p(a).`, `p(`); err == nil {
		t.Fatal("bad goal accepted")
	}
}

func TestSimulateOneShot(t *testing.T) {
	res, err := td.Simulate(`
		producer :- ins.msg(hello).
		consumer :- msg(M), ins.got(M).
	`, `producer | consumer`, td.SimOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("sim failed: %v", res.Err)
	}
	if res.Final.Count("got", 1) != 1 {
		t.Fatalf("message lost:\n%s", res.Final)
	}
}

func TestEngineSolutionsThroughFacade(t *testing.T) {
	prog := td.MustParse(`p(a). p(b).`)
	g, _, err := td.ParseGoal(`p(X)`, prog.VarHigh)
	if err != nil {
		t.Fatal(err)
	}
	d, err := td.DatabaseFor(prog)
	if err != nil {
		t.Fatal(err)
	}
	sols, _, err := td.NewDefaultEngine(prog).Solutions(g, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range sols {
		got = append(got, s.Bindings["X"].String())
	}
	sort.Strings(got)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("solutions = %v", got)
	}
}

func TestCheckSafetyFacade(t *testing.T) {
	prog := td.MustParse(`bad :- ins.p(X).`)
	if issues := td.CheckSafety(prog); len(issues) != 1 {
		t.Fatalf("issues = %v", issues)
	}
	// eq at the wrong arity is the arity lint's finding; the safety view
	// must read it without indexing past its arguments.
	if issues := td.CheckSafety(td.MustParse(`p(X) :- eq(X).`)); len(issues) != 0 {
		t.Fatalf("eq/1 with a head-bound argument flagged: %v", issues)
	}
}

func TestClassifyGoalFacade(t *testing.T) {
	prog := td.MustParse(`
		stack :- cmd(X), del.cmd(X), hold(X), stack.
		stack :- empty.cmd.
		hold(X) :- cmd(Y), del.cmd(Y), hold(Y), hold(X).
		hold(X) :- done.
	`)
	g, _, err := td.ParseGoal(`stack | stack | stack`, prog.VarHigh)
	if err != nil {
		t.Fatal(err)
	}
	if r := td.ClassifyGoal(prog, g); r.Fragment != td.Full {
		t.Fatalf("fragment = %v, want Full", r.Fragment)
	}
	if r := td.Classify(prog); r.Fragment != td.Sequential {
		t.Fatalf("fragment = %v, want Sequential", r.Fragment)
	}
}

func TestFragmentConstantsOrdered(t *testing.T) {
	if !(td.NonRecursive < td.InsOnly && td.InsOnly < td.FullyBounded &&
		td.FullyBounded < td.Sequential && td.Sequential < td.Full) {
		t.Fatal("fragment constants out of order")
	}
}

func TestProgrammaticGoals(t *testing.T) {
	prog := td.MustParse(`account(alice, 100).`)
	g := td.SeqGoal(
		td.QueryGoal(td.NewAtom("account", td.Sym("alice"), td.Int(100))),
		td.DelGoal(td.NewAtom("account", td.Sym("alice"), td.Int(100))),
		td.InsGoal(td.NewAtom("account", td.Sym("alice"), td.Int(70))),
		td.EmptyGoal("audit"),
	)
	d, err := td.DatabaseFor(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := td.NewDefaultEngine(prog).Prove(g, d)
	if err != nil || !res.Success {
		t.Fatalf("programmatic goal failed: %v %v", err, res)
	}
	if !d.Contains("account", []td.Term{td.Sym("alice"), td.Int(70)}) {
		t.Fatalf("final db wrong:\n%s", d)
	}

	// Concurrent + isolated composition, with a call resolved against the
	// program.
	prog2 := td.MustParse(`
		counter(0).
		bump :- counter(N), del.counter(N), add(N, 1, M), ins.counter(M).
	`)
	bump := td.CallGoal(td.NewAtom("bump"))
	g2 := td.ConcGoal(td.IsoGoal(bump), td.IsoGoal(bump))
	d2, _ := td.DatabaseFor(prog2)
	res2, err := td.NewDefaultEngine(prog2).Prove(g2, d2)
	if err != nil || !res2.Success {
		t.Fatal(err, res2)
	}
	if !d2.Contains("counter", []td.Term{td.Int(2)}) {
		t.Fatalf("isolated bumps wrong:\n%s", d2)
	}
	if td.TrueGoal().String() != "true" {
		t.Fatal("TrueGoal wrong")
	}
}

func TestFacadeCoverage(t *testing.T) {
	// ParseFile on testdata.
	prog, err := td.ParseFile("testdata/bank.td")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) == 0 || len(prog.Queries) != 1 {
		t.Fatalf("bank.td parse: %d rules, %d queries", len(prog.Rules), len(prog.Queries))
	}
	if _, err := td.ParseFile("testdata/does_not_exist.td"); err == nil {
		t.Fatal("missing file accepted")
	}
	// Simulate error paths.
	if _, err := td.Simulate("p(", "p", td.SimOptions{}); err == nil {
		t.Fatal("bad program accepted by Simulate")
	}
	if _, err := td.Simulate("p(a).", "p(", td.SimOptions{}); err == nil {
		t.Fatal("bad goal accepted by Simulate")
	}
	// ReachableFinals facade.
	prog2 := td.MustParse(`
		pick :- item(I), del.item(I).
		item(a). item(b).
	`)
	g, _, err := td.ParseGoal("pick", prog2.VarHigh)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := td.DatabaseFor(prog2)
	finals, err := td.ReachableFinals(prog2, g, d, td.EngineOptions{LoopCheck: true, Table: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(finals) != 2 {
		t.Fatalf("finals = %d", len(finals))
	}
	// Str constructor.
	if td.Str("x y").String() != `"x y"` {
		t.Fatal("Str wrong")
	}
}

func TestFreezeAndStoreFacades(t *testing.T) {
	d := td.NewDatabase()
	d.Insert("p", []td.Term{td.Sym("a")})
	fz := td.Freeze(d)
	fz2 := fz.Insert("p", []td.Term{td.Sym("b")})
	if fz.Size() != 1 || fz2.Size() != 2 {
		t.Fatalf("freeze sizes: %d %d", fz.Size(), fz2.Size())
	}
	dir := t.TempDir()
	s, err := td.OpenStore(dir+"/s.snap", dir+"/s.wal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("q", []td.Term{td.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := td.OpenStore(dir+"/s.snap", dir+"/s.wal")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.DB.Contains("q", []td.Term{td.Int(1)}) {
		t.Fatal("store did not recover")
	}
}
