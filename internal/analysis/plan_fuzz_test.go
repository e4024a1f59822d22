package analysis

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// FuzzPlan feeds arbitrary programs to the planner and checks the
// structural legality of every reorder decision it reports: each order is
// a permutation of the body, barriers (updates, '|' compositions, iso
// bodies, hazardous calls) never move, and non-query goals keep their
// textual relative order. Panics fail the fuzz run by themselves.
func FuzzPlan(f *testing.F) {
	f.Add("p(a). q(X) :- p(X).")
	f.Add("hot(W) :- reading(R, V), V > 900, sample_reading(W, R). ?- hot(s1).")
	f.Add("w(X) :- p(X, Y), p(a, b), ins.q(X), p(X, Z). ?- w(a).")
	f.Add("c(X) :- p(X, Y), (q(X) | q(a)), p(a, b).")
	f.Add("spawn(X) :- step(X) | spawn(X). loop(X) :- s(X), loop(X).")
	f.Add("h(X) :- iso(p(X)), q(X), empty.r, X > 1, eq(X, Y), plus(X, X, Z).")
	f.Add("% tdvet:ignore plan\nq(X) :- p(X, Y), p(a, b).")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse(src)
		if err != nil {
			return
		}
		facts := Analyze(prog)
		rep := facts.Plan()
		if rep.SchemaVersion != PlanSchemaVersion {
			t.Fatalf("schema version %d", rep.SchemaVersion)
		}
		// Re-derive the goal classes the reorderer saw.
		p := &planner{vetter: vetter{Facts: facts}}
		p.certify()
		for _, pp := range rep.Predicates {
			for _, rp := range pp.Rules {
				for _, op := range rp.Orders {
					checkOrder(t, p, pp.Pred, rp, op, prog)
				}
			}
		}
	})
}

// checkOrder validates one reported reorder against the legality rules.
func checkOrder(t *testing.T, p *planner, pred string, rp RulePlan, op OrderPlan, prog *ast.Program) {
	t.Helper()
	// Locate the rule: rp.Rule indexes the predicate's rules in source
	// order.
	var rules []ast.Rule
	for _, k := range p.nodes {
		if k.String() == pred {
			rules = prog.RulesFor(k.pred, k.arity)
			break
		}
	}
	if rp.Rule >= len(rules) {
		t.Fatalf("%s rule %d out of range", pred, rp.Rule)
	}
	seq, ok := rules[rp.Rule].Body.(*ast.Seq)
	if !ok {
		t.Fatalf("%s rule %d: reorder reported for a non-Seq body", pred, rp.Rule)
	}
	n := len(seq.Goals)
	if len(op.Order) != n {
		t.Fatalf("%s rule %d: order length %d, body length %d", pred, rp.Rule, len(op.Order), n)
	}
	seen := make([]bool, n)
	for _, idx := range op.Order {
		if idx < 0 || idx >= n || seen[idx] {
			t.Fatalf("%s rule %d: order %v is not a permutation", pred, rp.Rule, op.Order)
		}
		seen[idx] = true
	}
	classes := make([]litClass, n)
	for i, g := range seq.Goals {
		classes[i] = p.litClassOf(g)
	}
	var prevOrdered = -1
	for k, idx := range op.Order {
		if classes[idx] == classBarrier && idx != k {
			t.Fatalf("%s rule %d: barrier at textual %d moved to %d in %v", pred, rp.Rule, idx, k, op.Order)
		}
		if isOrderedClass(classes[idx]) {
			if idx < prevOrdered {
				t.Fatalf("%s rule %d: non-query goals swapped (%d after %d) in %v", pred, rp.Rule, idx, prevOrdered, op.Order)
			}
			prevOrdered = idx
		}
	}
	// No goal crosses a barrier: positions between consecutive barriers
	// must be filled from the same textual window.
	lo := 0
	for i := 0; i <= n; i++ {
		if i < n && classes[i] != classBarrier {
			continue
		}
		for k := lo; k < i; k++ {
			if op.Order[k] < lo || op.Order[k] >= i {
				t.Fatalf("%s rule %d: goal %d escaped its run [%d,%d) in %v", pred, rp.Rule, op.Order[k], lo, i, op.Order)
			}
		}
		lo = i + 1
	}
}
