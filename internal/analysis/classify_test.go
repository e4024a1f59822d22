package analysis

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/term"
)

// TestClassify walks the paper's complexity ladder: each case is a program
// (optionally with a top-level goal, the ClassifyGoal entry point) whose
// fragment and recursion-placement features are known by construction.
func TestClassify(t *testing.T) {
	frag := func(f Fragment) *Fragment { return &f }
	for _, tc := range []struct {
		name string
		src  string
		goal string    // non-empty: classify the program together with this goal
		want *Fragment // nil: only the features are asserted
		feat func(Features) bool
	}{
		{
			name: "NonRecursive",
			src: `t :- p(X), del.p(X), ins.q(X).
			      u :- t | t.`,
			want: frag(NonRecursive),
			feat: func(f Features) bool { return !f.Recursive && f.UsesConcurrency && f.UsesDel },
		},
		{
			name: "InsOnly",
			src: `path(X, Y) :- edge(X, Y), ins.reached(Y).
			      path(X, Y) :- edge(X, Z), path(Z, Y).`,
			want: frag(InsOnly),
			feat: func(f Features) bool { return f.Recursive && !f.UsesDel },
		},
		{
			// Sequential tail recursion: the paper's iterated-protocol shape.
			name: "FullyBoundedIteration",
			src: `drain :- todo(X), del.todo(X), ins.done(X), drain.
			      drain :- empty.todo.`,
			want: frag(FullyBounded),
			feat: func(f Features) bool { return f.TailOnlyRecursion },
		},
		{
			// Concurrency among non-recursive subgoals keeps the program
			// bounded: process count stays goal-bounded.
			name: "FullyBoundedAllowsConcElsewhere",
			src: `step(W) :- t1(W) | t2(W).
			      t1(W) :- ins.a(W).
			      t2(W) :- ins.b(W).
			      loop :- todo(X), del.todo(X), step(X), loop.
			      loop :- empty.todo.`,
			want: frag(FullyBounded),
		},
		{
			// Recursion in a non-tail position: sequential TD (EXPTIME).
			name: "SequentialNonTailRecursion",
			src: `p :- q, p, r.
			      q :- ins.a.
			      r :- del.a.`,
			want: frag(Sequential),
			feat: func(f Features) bool { return !f.TailOnlyRecursion },
		},
		{
			// Example 3.2's shape: the simulation spawns a new concurrent
			// process per work item — recursion under |. This is what buys
			// RE power.
			name: "FullTDRecursionUnderConcurrency",
			src: `simulate :- new_item(X), del.new_item(X), (workflow(X) | simulate).
			      workflow(X) :- ins.done(X), del.done(X).`,
			want: frag(Full),
			feat: func(f Features) bool { return f.RecursionUnderConc },
		},
		{
			// Both recursive calls are in tail position.
			name: "MutualRecursionDetected",
			src: `even :- del.tick, odd.
			      odd :- ins.tick, even.`,
			want: frag(FullyBounded),
			feat: func(f Features) bool { return f.Recursive && len(f.RecursivePreds) == 2 },
		},
		{
			// Head-position recursion is not tail recursion.
			name: "SelfLoopDetected",
			src:  `p :- p, ins.x.`,
			feat: func(f Features) bool { return f.Recursive && !f.TailOnlyRecursion },
		},
		{
			name: "RecursionUnderIso",
			src:  `p :- iso(p), del.x.`,
			want: frag(Sequential),
			feat: func(f Features) bool { return f.RecursionUnderIso },
		},
		{
			// p/1 -> p/2 is not a cycle.
			name: "SameNameDifferentArityNotRecursive",
			src: `p(X) :- p(X, X).
			      p(X, Y) :- q(X, Y).`,
			feat: func(f Features) bool { return !f.Recursive },
		},
		{
			// The rulebase of the next case on its own.
			name: "StackRulebaseIsSequential",
			src: `stack :- cmd(X), del.cmd(X), hold(X), stack.
			      stack :- empty.cmd.
			      hold(X) :- cmd(Y), del.cmd(Y), hold(Y), hold(X).
			      hold(X) :- done.`,
			want: frag(Sequential),
		},
		{
			// Corollary 4.6: a sequential rulebase (non-tail recursion — the
			// stack processes of the construction) driven by a concurrent
			// goal reaches full TD.
			name: "AnalyzeGoalAddsConcurrency",
			src: `stack :- cmd(X), del.cmd(X), hold(X), stack.
			      stack :- empty.cmd.
			      hold(X) :- cmd(Y), del.cmd(Y), hold(Y), hold(X).
			      hold(X) :- done.`,
			goal: `stack | stack | stack`,
			want: frag(Full),
			feat: func(f Features) bool { return f.UsesConcurrency },
		},
		{
			// Bounded-width concurrency over tail-recursive (iteration-only)
			// processes keeps configurations polynomial: still fully bounded.
			name: "GoalConcurrencyOverTailRecursionStaysBounded",
			src: `worker :- todo(X), del.todo(X), ins.done(X), worker.
			      worker :- empty.todo.`,
			goal: `worker | worker`,
			want: frag(FullyBounded),
		},
		{
			// sat :- guess(1), chk(1): guess is tail-recursive within its own
			// SCC; the non-tail call from sat (outside the SCC) is a plain
			// subroutine call and must not break tail-only classification.
			name: "NonTailCallFromOutsideSCCIsNotRecursion",
			src: `guess(I) :- nomorevars(I).
			      guess(I) :- qvar(I), ins.asg(I, t), succv(I, J), guess(J).
			      guess(I) :- qvar(I), ins.asg(I, f), succv(I, J), guess(J).
			      chk(C) :- nomoreclauses(C).
			      chk(C) :- lit(C, X, S), asg(X, S), succc(C, D), chk(D).
			      sat :- guess(1), chk(1), del.asg(1, t).`,
			want: frag(FullyBounded),
			feat: func(f Features) bool { return f.TailOnlyRecursion },
		},
		{
			// Ins-only AND tail-recursive: InsOnly is the label (more
			// restricted).
			name: "OrderingMostRestrictedWins",
			src: `grow :- seed(X), ins.grown(X), grow.
			      grow :- true.`,
			want: frag(InsOnly),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := parser.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			r := Analyze(prog).Classify()
			if tc.goal != "" {
				goal, _, err := parser.ParseGoal(tc.goal, prog.VarHigh)
				if err != nil {
					t.Fatal(err)
				}
				r = Analyze(prog).ClassifyGoal(goal)
			}
			if tc.want != nil && r.Fragment != *tc.want {
				t.Errorf("fragment = %v, want %v (features %+v)", r.Fragment, *tc.want, r.Features)
			}
			if tc.feat != nil && !tc.feat(r.Features) {
				t.Errorf("features wrong: %+v", r.Features)
			}
		})
	}
}

func TestFragmentStringsAndComplexity(t *testing.T) {
	for _, f := range []Fragment{NonRecursive, InsOnly, FullyBounded, Sequential, Full} {
		if f.String() == "" || f.Complexity() == "" {
			t.Errorf("fragment %d missing labels", f)
		}
	}
	if Fragment(99).String() == "" || Fragment(99).Complexity() == "" {
		t.Error("unknown fragment must still render")
	}
}

// TestCheckSafety exercises the rule-level safety view on hand-built
// programs: what counts as bound (head variables, earlier queries and
// calls, arithmetic outputs, either side of eq), what does not (a sibling
// '|' branch), and that a builtin at the wrong arity is a finding, not a
// crash.
func TestCheckSafety(t *testing.T) {
	x, y, z := term.NewVar("X", 0), term.NewVar("Y", 1), term.NewVar("Z", 2)
	lit := func(op ast.AtomOp, pred string, args ...term.Term) *ast.Lit {
		return &ast.Lit{Op: op, Atom: term.Atom{Pred: pred, Args: args}}
	}
	builtin := func(name string, args ...term.Term) *ast.Builtin {
		return &ast.Builtin{Name: name, Args: args}
	}
	rule := func(head term.Atom, body ...ast.Goal) ast.Rule {
		return ast.Rule{Head: head, Body: ast.NewSeq(body...)}
	}
	for _, tc := range []struct {
		name    string
		rules   []ast.Rule
		flagged []string // head predicate of each expected issue, in order
	}{
		{"FlagsUnboundUpdates",
			[]ast.Rule{rule(term.NewAtom("bad"), lit(ast.OpIns, "p", x))},
			[]string{"bad"}},
		{"HeadVarsBound",
			[]ast.Rule{rule(term.NewAtom("ok", x), lit(ast.OpIns, "p", x))},
			nil},
		{"QueryBinds",
			[]ast.Rule{rule(term.NewAtom("ok"), lit(ast.OpCall, "q", x), lit(ast.OpIns, "p", x))},
			nil},
		{
			// ins.p(X) runs concurrently with q(X): X may be unbound when
			// the insertion fires.
			"ConcurrentSiblingsDontBind",
			[]ast.Rule{rule(term.NewAtom("bad"), ast.NewConc(lit(ast.OpCall, "q", x), lit(ast.OpIns, "p", x)))},
			[]string{"bad"}},
		{
			// But after the concurrent block, bindings from all branches hold.
			"BindingsHoldAfterConc",
			[]ast.Rule{rule(term.NewAtom("ok"),
				ast.NewConc(lit(ast.OpCall, "q", y), lit(ast.OpCall, "r")),
				lit(ast.OpIns, "p", y))},
			nil},
		{"ArithOutput",
			[]ast.Rule{
				rule(term.NewAtom("ok", x), builtin("add", x, term.NewInt(1), z), lit(ast.OpIns, "p", z)),
				rule(term.NewAtom("bad", x), builtin("add", x, z, x)),
			},
			[]string{"bad"}},
		{"EqBindsEitherSide",
			[]ast.Rule{rule(term.NewAtom("ok"), builtin("eq", x, term.NewInt(5)), lit(ast.OpIns, "p", x))},
			nil},
		{"EqBothSidesUnbound",
			[]ast.Rule{rule(term.NewAtom("bad"), builtin("eq", x, y))},
			[]string{"bad"}},
		{
			// The arity lint's business; the safety view reads a malformed
			// eq like any other builtin (all arguments are inputs).
			"EqWrongArity",
			[]ast.Rule{rule(term.NewAtom("p", x), builtin("eq", x)), rule(term.NewAtom("bad"), builtin("eq", y))},
			[]string{"bad"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &ast.Program{Rules: tc.rules}
			if err := p.Analyze(); err != nil {
				t.Fatal(err)
			}
			issues := Analyze(p).CheckSafety()
			if len(issues) != len(tc.flagged) {
				t.Fatalf("issues = %v, want %d", issues, len(tc.flagged))
			}
			for i, is := range issues {
				if is.Pred != tc.flagged[i] || is.String() == "" {
					t.Errorf("issue %d = %q, want one on %s", i, is, tc.flagged[i])
				}
			}
		})
	}
}
