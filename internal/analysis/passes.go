package analysis

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/term"
)

// Paper citations attached to diagnostics, one per lint family.
const (
	citeSafety   = "Section 2: elementary updates execute on ground tuples"
	citeDerived  = "Section 3: derived predicates are defined by rules, not stored tuples"
	citeRecConc  = "Theorem 4.4, Corollary 4.6: recursion through '|' makes committing RE-complete"
	citeBounded  = "Section 5: fully bounded TD restricts recursion to sequential iteration"
	citeEntail   = "Section 2: a transaction commits only if some execution path succeeds"
	citeFragment = "Theorems 4.4-4.7, Section 5"
	citePlan     = "Section 2: read-only queries commute within a sequential conjunction"
)

// vetter is one Vet (or Plan) run over a Facts value: the facts it folds
// over and the diagnostics it accumulates.
type vetter struct {
	*Facts
	diags []Diagnostic
}

// diag appends a diagnostic, clamping the position so every diagnostic
// carries a valid 1-based location even for programmatically built
// programs whose nodes have the zero Pos.
func (v *vetter) diag(pos ast.Pos, sev Severity, id, msg, cite string) {
	line, col := pos.Line, pos.Col
	if line < 1 {
		line, col = 1, 1
	}
	if col < 1 {
		col = 1
	}
	v.diags = append(v.diags, Diagnostic{Line: line, Col: col, Sev: sev, ID: id, Msg: msg, Cite: cite})
}

// ---------------------------------------------------------------- safety --

// passSafety anchors every finding of the boundness scan (Facts.unsafe) to
// its literal: updates and builtin inputs reached with a possibly-unbound
// variable are errors.
func (v *vetter) passSafety() {
	v.unsafe(func(_ int, at ast.Goal, problem string) {
		switch at := at.(type) {
		case *ast.Lit:
			v.diag(at.Pos, SevError, LintSafety, problem+"; bind it with an earlier query in the sequence", citeSafety)
		case *ast.Builtin:
			v.diag(at.Pos, SevError, LintSafety, problem, citeSafety)
		}
	})
}

// ------------------------------------------------------- undefined-pred --

// passUndefined flags reads of predicates that have no rules, no facts,
// and are never inserted anywhere: such a query can never succeed against
// any database this program builds.
func (v *vetter) passUndefined() {
	check := func(g ast.Goal) {
		ast.Walk(g, func(sub ast.Goal) bool {
			l, ok := sub.(*ast.Lit)
			if !ok {
				return true
			}
			k := litKey(l.Atom)
			if ast.IsBuiltinName(k.pred) {
				return true
			}
			read := l.Op == ast.OpQuery || (l.Op == ast.OpCall && !v.derived[k])
			if read && !v.hasFacts[k] && !v.inserted[k] {
				v.diag(l.Pos, SevWarning, LintUndefinedPred,
					fmt.Sprintf("%s has no rules, no facts, and is never inserted; this query can never succeed", k), "")
			}
			return true
		})
	}
	for _, r := range v.prog.Rules {
		check(r.Body)
	}
	for _, q := range v.prog.Queries {
		check(q)
	}
}

// ------------------------------------------- unused-pred and dead-clause --

// passUnusedAndDead reports derived predicates that are never called
// (unused-pred) and clauses of called-but-unreachable predicates
// (dead-clause: no path from any ?- query reaches them). Both lints are
// meaningful only when the program declares its entry points, so they are
// skipped for programs without ?- directives (rulebase libraries).
func (v *vetter) passUnusedAndDead() {
	if len(v.prog.Queries) == 0 {
		return
	}
	called := make(map[predKey]bool)
	note := func(g ast.Goal) {
		ast.Walk(g, func(sub ast.Goal) bool {
			if l, ok := sub.(*ast.Lit); ok && (l.Op == ast.OpCall || l.Op == ast.OpQuery) {
				called[litKey(l.Atom)] = true
			}
			return true
		})
	}
	for _, r := range v.prog.Rules {
		note(r.Body)
	}
	// Reachability over the call graph from the predicates the ?- queries
	// invoke.
	reach := make([]bool, len(v.nodes))
	for _, q := range v.prog.Queries {
		note(q)
		ast.Walk(q, func(sub ast.Goal) bool {
			if l, ok := sub.(*ast.Lit); ok {
				if idx, ok := v.nodeIdx[litKey(l.Atom)]; ok {
					reach[idx] = true
				}
			}
			return true
		})
	}
	v.fixpoint(func(from, to int) bool {
		if reach[from] && !reach[to] {
			reach[to] = true
			return true
		}
		return false
	})
	reported := make(map[predKey]bool)
	for _, r := range v.prog.Rules {
		k := litKey(r.Head)
		idx := v.nodeIdx[k]
		if reach[idx] {
			continue
		}
		if !called[k] {
			if !reported[k] {
				reported[k] = true
				v.diag(r.Pos, SevWarning, LintUnusedPred,
					fmt.Sprintf("derived predicate %s is never called", k), "")
			}
			continue
		}
		v.diag(r.Pos, SevWarning, LintDeadClause,
			fmt.Sprintf("clause of %s is unreachable from every ?- query", k), "")
	}
}

// ----------------------------------------------------------------- arity --

// passArity flags one predicate name used at several arities (arity is
// part of predicate identity, so this is almost always a typo) and
// builtins invoked with the wrong argument count.
func (v *vetter) passArity() {
	first := make(map[predKey]ast.Pos)
	byName := make(map[string][]predKey) // arities per name, first-seen order
	note := func(a term.Atom, pos ast.Pos) {
		if ast.IsBuiltinName(a.Pred) {
			return
		}
		k := litKey(a)
		if _, seen := first[k]; seen {
			return
		}
		first[k] = pos
		byName[k.pred] = append(byName[k.pred], k)
	}
	noteGoal := func(g ast.Goal) {
		ast.Walk(g, func(sub ast.Goal) bool {
			switch sub := sub.(type) {
			case *ast.Lit:
				note(sub.Atom, sub.Pos)
			case *ast.Builtin:
				if want, ok := ast.BuiltinArity(sub.Name); ok && len(sub.Args) != want {
					v.diag(sub.Pos, SevWarning, LintArity,
						fmt.Sprintf("builtin %s expects %d arguments, got %d", sub.Name, want, len(sub.Args)), "")
				}
			}
			return true
		})
	}
	for _, r := range v.prog.Rules {
		note(r.Head, r.Pos)
		noteGoal(r.Body)
	}
	for i, f := range v.prog.Facts {
		var pos ast.Pos
		if i < len(v.prog.FactPos) {
			pos = v.prog.FactPos[i]
		}
		note(f, pos)
	}
	for _, q := range v.prog.Queries {
		noteGoal(q)
	}
	for _, keys := range byName {
		for _, k := range keys[1:] {
			v.diag(first[k], SevWarning, LintArity,
				fmt.Sprintf("%s is also used with arity %d; arity is part of predicate identity", k, keys[0].arity), "")
		}
	}
}

// -------------------------------------------------------- update-derived --

// passUpdateDerived flags ins/del whose target is a derived (rule-defined)
// or builtin predicate. The parser's Analyze already hard-rejects these in
// parsed programs; the pass makes Vet self-contained for programmatically
// built programs.
func (v *vetter) passUpdateDerived() {
	check := func(g ast.Goal) {
		ast.Walk(g, func(sub ast.Goal) bool {
			l, ok := sub.(*ast.Lit)
			if !ok || (l.Op != ast.OpIns && l.Op != ast.OpDel) {
				return true
			}
			k := litKey(l.Atom)
			switch {
			case ast.IsBuiltinName(k.pred):
				v.diag(l.Pos, SevError, LintUpdateDerived,
					fmt.Sprintf("%s.%s: cannot update builtin predicate", l.Op, l.Atom), citeDerived)
			case v.derived[k]:
				v.diag(l.Pos, SevError, LintUpdateDerived,
					fmt.Sprintf("%s.%s: cannot update derived predicate %s", l.Op, l.Atom, k), citeDerived)
			}
			return true
		})
	}
	for _, r := range v.prog.Rules {
		check(r.Body)
	}
	for _, q := range v.prog.Queries {
		check(q)
	}
}

// -------------------------------------------------- recursion-under-conc --

// passRecursionUnderConc flags the exact literal that closes a recursion
// cycle inside a concurrent composition: each loop iteration can spawn a
// fresh concurrent process, so the process count is unbounded by the goal
// and committing becomes undecidable.
func (v *vetter) passRecursionUnderConc() {
	for _, c := range v.recCalls {
		if c.underConc {
			v.diag(c.lit.Pos, SevError, LintRecursionConc,
				fmt.Sprintf("recursive call to %s under '|' in clause %s: each iteration may spawn a new concurrent process",
					litKey(c.lit.Atom), litKey(v.prog.Rules[c.rule].Head)),
				citeRecConc)
		}
	}
}

// ------------------------------------------------------ unbounded-update --

// passUnboundedUpdate flags updates inside clauses whose recursion is not
// sequential tail recursion. Tail recursion is iteration — the number of
// updates per pass is fixed by the clause — but non-tail recursion (or
// recursion under | / iso) stacks update work per recursive descent, so
// the total update count is not bounded by the goal: the program falls
// out of the fully bounded fragment.
func (v *vetter) passUnboundedUpdate() {
	last := -1
	for _, c := range v.recCalls {
		if c.tail || c.rule == last {
			continue
		}
		last = c.rule
		r := v.prog.Rules[c.rule]
		head := litKey(r.Head)
		ast.Walk(r.Body, func(sub ast.Goal) bool {
			if l, ok := sub.(*ast.Lit); ok && (l.Op == ast.OpIns || l.Op == ast.OpDel) {
				v.diag(l.Pos, SevWarning, LintUnboundedUpdate,
					fmt.Sprintf("%s.%s executes in non-tail-recursive clause %s; update count is not bounded by the goal", l.Op, l.Atom.Pred, head),
					citeBounded)
			}
			return true
		})
	}
}

// ---------------------------------------------------------- never-commit --

// pstate is what the never-commit scan knows about one base relation at a
// point in a sequential execution.
type pstate uint8

const (
	stEmpty    pstate = iota + 1 // a successful empty.p proved p empty
	stNonEmpty                   // an ins.p or successful query proved p non-empty
)

// dbstate maps predicate names (emptiness is per name, not per arity in
// the surface syntax) to what is known about them. Absent = unknown.
type dbstate map[string]pstate

// passNeverCommit finds bodies that provably fail on every execution
// path: an emptiness test conjoined after a required insertion, or a
// query after a successful emptiness test, with nothing in between that
// could change the relation. A transaction whose body cannot succeed
// never commits, so the clause is dead weight that still burns prover
// budget at run time.
func (v *vetter) passNeverCommit() {
	for _, r := range v.prog.Rules {
		v.commitScan(r.Body, dbstate{}, nil, false)
	}
	for _, q := range v.prog.Queries {
		v.commitScan(q, dbstate{}, nil, false)
	}
}

// commitScan walks g left to right, updating st. hazard names relations a
// sibling concurrent branch updates (its interleaved ins/del can
// invalidate our knowledge between any two steps); muteAll is set when a
// sibling calls a derived predicate, which may update anything.
func (v *vetter) commitScan(g ast.Goal, st dbstate, hazard map[string]bool, muteAll bool) {
	switch g := g.(type) {
	case *ast.Lit:
		name := g.Atom.Pred
		switch g.Op {
		case ast.OpIns:
			st[name] = stNonEmpty
		case ast.OpDel:
			delete(st, name) // p may or may not still hold other tuples
		case ast.OpQuery:
			if st[name] == stEmpty && !muteAll && !hazard[name] {
				v.diag(g.Pos, SevWarning, LintNeverCommit,
					fmt.Sprintf("query %s follows a successful empty.%s with no intervening insertion; this body can never succeed", g, name),
					citeEntail)
			}
			st[name] = stNonEmpty
		case ast.OpCall:
			if ast.IsBuiltinName(name) {
				return
			}
			if v.derived[litKey(g.Atom)] {
				clear(st) // the called transaction may update anything
			} else {
				// Behaves as a base-relation query.
				if st[name] == stEmpty && !muteAll && !hazard[name] {
					v.diag(g.Pos, SevWarning, LintNeverCommit,
						fmt.Sprintf("query %s follows a successful empty.%s with no intervening insertion; this body can never succeed", g, name),
						citeEntail)
				}
				st[name] = stNonEmpty
			}
		}
	case *ast.Empty:
		if st[g.Pred] == stNonEmpty && !muteAll && !hazard[g.Pred] {
			v.diag(g.Pos, SevWarning, LintNeverCommit,
				fmt.Sprintf("empty.%s follows ins.%s with no intervening deletion; this body can never succeed", g.Pred, g.Pred),
				citeEntail)
		}
		st[g.Pred] = stEmpty
	case *ast.Seq:
		for _, sub := range g.Goals {
			v.commitScan(sub, st, hazard, muteAll)
		}
	case *ast.Conc:
		for i, sub := range g.Goals {
			sibHazard, sibMute := v.siblingUpdates(g.Goals, i)
			for k := range hazard {
				sibHazard[k] = true
			}
			v.commitScan(sub, dbstate{}, sibHazard, muteAll || sibMute)
		}
		clear(st) // branches updated in some interleaved order
	case *ast.Iso:
		// Isolation: the body runs atomically, so no sibling interleaving
		// can break sequential reasoning inside it.
		v.commitScan(g.Body, dbstate{}, nil, false)
		clear(st)
	}
}

// siblingUpdates collects the relation names every branch other than skip
// may update, and whether any such branch calls a derived predicate
// (which may update anything).
func (v *vetter) siblingUpdates(branches []ast.Goal, skip int) (map[string]bool, bool) {
	names := make(map[string]bool)
	muteAll := false
	for i, b := range branches {
		if i == skip {
			continue
		}
		ast.Walk(b, func(sub ast.Goal) bool {
			if l, ok := sub.(*ast.Lit); ok {
				switch l.Op {
				case ast.OpIns, ast.OpDel:
					names[l.Atom.Pred] = true
				case ast.OpCall:
					if v.derived[litKey(l.Atom)] {
						muteAll = true
					}
				}
			}
			return true
		})
	}
	return names, muteAll
}
