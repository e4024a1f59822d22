package analysis

import (
	"strings"

	"repro/internal/ast"
	"repro/internal/term"
)

// Adornment dataflow: propagate bound/free argument signatures from query
// entry points through the call graph, computing the set of binding
// patterns each derived predicate is invoked with. An adornment is a
// string over 'b'/'f', one character per argument position ("bf" means
// "first argument bound, second free" — written path^bf in the magic-sets
// literature). The planner reorders each rule body once per adornment its
// head is reachable with; the engine picks the variant matching the
// runtime groundness of the call's arguments.
//
// Propagation is walkBound's left-to-right sideways information passing,
// seeded with the head positions the adornment marks 'b'.

// maxAdornments caps the binding patterns tracked per predicate. Programs
// that exceed it keep their first-discovered patterns (the worklist is
// deterministic); calls with an untracked pattern fall back to textual
// order at run time, which is always sound.
const maxAdornments = 16

// adornSet holds one predicate's binding patterns in discovery order
// (discovery order makes the cap deterministic).
type adornSet struct {
	seen map[string]bool
	list []string
}

func (s *adornSet) add(ad string) bool {
	if s.seen[ad] {
		return false
	}
	if len(s.list) >= maxAdornments {
		return false
	}
	if s.seen == nil {
		s.seen = make(map[string]bool)
	}
	s.seen[ad] = true
	s.list = append(s.list, ad)
	return true
}

// adornOf renders the binding pattern of a call's arguments against the
// current bound-variable set: constants and bound variables are 'b',
// everything else 'f'.
func adornOf(args []term.Term, bound varset) string {
	if len(args) == 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(len(args))
	for _, t := range args {
		if bound.has(t) {
			b.WriteByte('b')
		} else {
			b.WriteByte('f')
		}
	}
	return b.String()
}

// allBound returns the all-'b' adornment for the given arity.
func allBound(arity int) string { return strings.Repeat("b", arity) }

// boundPositions seeds a bound-variable set from the head arguments the
// adornment marks 'b'.
func boundPositions(head term.Atom, ad string) varset {
	bound := varset{}
	for i, t := range head.Args {
		if i < len(ad) && ad[i] == 'b' {
			bound.add(t)
		}
	}
	return bound
}

// adornWork is one worklist entry: propagate adornment ad through the
// bodies of pred's rules.
type adornWork struct {
	pred predKey
	ad   string
}

// adornments runs the interprocedural dataflow to a fixpoint and returns
// each derived predicate's binding patterns. Seeds are the ?- query goals
// (their calls are adorned against an initially empty binding set) plus
// the all-bound pattern for every derived predicate: the server's EXEC
// goals and the engine's Prove entry points take arbitrary, typically
// ground, goals, so the fully bound pattern is always live.
func (f *Facts) adornments() map[predKey]*adornSet {
	sets := make(map[predKey]*adornSet, len(f.nodes))
	var queue []adornWork
	push := func(k predKey, ad string) {
		s := sets[k]
		if s == nil {
			s = &adornSet{}
			sets[k] = s
		}
		if s.add(ad) {
			queue = append(queue, adornWork{pred: k, ad: ad})
		}
	}
	// propagate emits the adornment of every call to a derived predicate
	// in g at the moment the scan reaches it.
	propagate := func(g ast.Goal, bound varset) {
		walkBound(g, bound, func(g ast.Goal, bound varset) {
			if l, ok := g.(*ast.Lit); ok && l.Op == ast.OpCall {
				if k := litKey(l.Atom); f.derived[k] {
					push(k, adornOf(l.Atom.Args, bound))
				}
			}
		})
	}
	for _, k := range f.nodes {
		push(k, allBound(k.arity))
	}
	for _, q := range f.prog.Queries {
		propagate(q, varset{})
	}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		for _, r := range f.prog.RulesFor(w.pred.pred, w.pred.arity) {
			propagate(r.Body, boundPositions(r.Head, w.ad))
		}
	}
	return sets
}
