package analysis

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/term"
)

// predKey identifies a predicate by name and arity; arity is part of
// predicate identity throughout the engine.
type predKey struct {
	pred  string
	arity int
}

func (k predKey) String() string { return fmt.Sprintf("%s/%d", k.pred, k.arity) }

func litKey(a term.Atom) predKey { return predKey{pred: a.Pred, arity: len(a.Args)} }

// Facts is the one program-analysis core: everything the paper's complexity
// ladder (Theorems 4.4-4.7, Section 5) and its safety condition are read
// off. Analyze computes it once; the vet passes, the tdplan planner, the
// fragment classifier, the safety check and the engine's recursion gate are
// folds over it and never rebuild any of it. A Facts value is immutable
// after Analyze and never mutates the program.
type Facts struct {
	prog *ast.Program

	derived  map[predKey]bool // defined by at least one rule
	hasFacts map[predKey]bool // appears as a fact
	inserted map[predKey]bool // target of some ins.

	// The call graph of derived predicates: one node per predicate in
	// first-rule order, one edge per call literal in a rule body.
	nodes   []predKey
	nodeIdx map[predKey]int
	edges   [][]int
	sccID   []int  // Tarjan SCC id per node
	inCycle []bool // node sits on a call-graph cycle

	// recCalls lists every call that closes a recursion cycle, in rule
	// then body order, with where it sits in its rule body; recClass is
	// the recursion class (RecNone..RecConc) they give each node's SCC.
	recCalls []recCall
	recClass []string

	// features is the operator usage of the rule bodies plus the
	// recursion placement summary — the fragment classifier's input.
	features Features
}

// recCall is one recursive call site: a call from a rule into its own
// head's SCC. Calls into a recursive predicate from outside its SCC are
// ordinary subroutine calls and are not listed.
type recCall struct {
	rule      int // index into Program.Rules
	lit       *ast.Lit
	tail      bool // the final step of the body's sequential spine
	underConc bool // inside a '|' composition
	underIso  bool // inside an iso(...) sub-transaction
}

// Analyze computes the facts layer for prog.
func Analyze(prog *ast.Program) *Facts {
	f := &Facts{
		prog:     prog,
		derived:  make(map[predKey]bool),
		hasFacts: make(map[predKey]bool),
		inserted: make(map[predKey]bool),
		nodeIdx:  make(map[predKey]int),
	}
	for _, r := range prog.Rules {
		k := litKey(r.Head)
		f.derived[k] = true
		if _, ok := f.nodeIdx[k]; !ok {
			f.nodeIdx[k] = len(f.nodes)
			f.nodes = append(f.nodes, k)
		}
	}
	for _, a := range prog.Facts {
		f.hasFacts[litKey(a)] = true
	}
	f.edges = make([][]int, len(f.nodes))
	scan := func(g ast.Goal, from int) {
		ast.Walk(g, func(sub ast.Goal) bool {
			l, ok := sub.(*ast.Lit)
			if !ok {
				return true
			}
			switch l.Op {
			case ast.OpIns:
				f.inserted[litKey(l.Atom)] = true
			case ast.OpCall:
				if to, ok := f.nodeIdx[litKey(l.Atom)]; ok && from >= 0 {
					f.edges[from] = append(f.edges[from], to)
				}
			}
			return true
		})
	}
	for _, r := range prog.Rules {
		scan(r.Body, f.nodeIdx[litKey(r.Head)])
		noteOperators(r.Body, &f.features)
	}
	for _, q := range prog.Queries {
		scan(q, -1)
	}
	f.findCycles()
	f.placeRecursion()
	return f
}

// findCycles runs Tarjan's SCC algorithm over the call graph and marks the
// nodes on a cycle: members of an SCC of size > 1, or self-loops.
func (f *Facts) findCycles() {
	n := len(f.nodes)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	f.sccID = make([]int, n)
	f.inCycle = make([]bool, n)
	for i := range index {
		index[i] = -1
		f.sccID[i] = -1
	}
	var stack []int
	next, nscc := 0, 0

	var strongconnect func(x int)
	strongconnect = func(x int) {
		index[x] = next
		low[x] = next
		next++
		stack = append(stack, x)
		onStack[x] = true
		for _, w := range f.edges[x] {
			if index[w] == -1 {
				strongconnect(w)
				if low[w] < low[x] {
					low[x] = low[w]
				}
			} else if onStack[w] {
				if index[w] < low[x] {
					low[x] = index[w]
				}
			}
		}
		if low[x] == index[x] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				f.sccID[w] = nscc
				if w == x {
					break
				}
			}
			nscc++
			if len(comp) > 1 {
				for _, w := range comp {
					f.inCycle[w] = true
				}
			} else {
				for _, w := range f.edges[x] {
					if w == x {
						f.inCycle[x] = true
					}
				}
			}
		}
	}
	for x := 0; x < n; x++ {
		if index[x] == -1 {
			strongconnect(x)
		}
	}
}

// fixpoint is the one call-graph dataflow loop: it applies merge to every
// call edge until a full sweep changes nothing. merge moves whatever the
// caller of fixpoint tracks along the edge — callee to caller for "reaches
// an update" and support sets, caller to callee for reachability from the
// ?- queries — and reports whether it changed anything.
func (f *Facts) fixpoint(merge func(from, to int) bool) {
	for changed := true; changed; {
		changed = false
		for from, tos := range f.edges {
			for _, to := range tos {
				if merge(from, to) {
					changed = true
				}
			}
		}
	}
}

// reaching returns, per node, whether the node is marked or some chain of
// calls from it reaches a marked node.
func (f *Facts) reaching(marked []bool) []bool {
	reach := append([]bool(nil), marked...)
	f.fixpoint(func(from, to int) bool {
		if reach[to] && !reach[from] {
			reach[from] = true
			return true
		}
		return false
	})
	return reach
}

// ReachesRecursion calls yield once for every derived predicate from which
// some chain of calls reaches a predicate on a call-graph cycle (the cyclic
// predicates themselves included). A goal that calls none of them unfolds
// into strictly lower call-graph heights at every call step, so no
// configuration can recur along one of its derivation paths — the engine
// drops the path-cycle check for such goals.
func (f *Facts) ReachesRecursion(yield func(pred string, arity int)) {
	for x, reaches := range f.reaching(f.inCycle) {
		if reaches {
			yield(f.nodes[x].pred, f.nodes[x].arity)
		}
	}
}

// ReachesRecursion is Analyze(prog).ReachesRecursion(yield).
func ReachesRecursion(prog *ast.Program, yield func(pred string, arity int)) {
	Analyze(prog).ReachesRecursion(yield)
}

// ------------------------------------------------------ recursion placement --

// Recursion classes, from most benign to least: no recursion, sequential
// tail recursion (iteration), non-tail recursion (stacked descents), and
// recursion through '|' (unbounded process creation, Theorem 4.4 — never
// tabling-eligible).
const (
	RecNone    = "none"
	RecTail    = "tail"
	RecNonTail = "nontail"
	RecConc    = "conc"
)

var recClasses = [...]string{RecNone, RecTail, RecNonTail, RecConc}

// rank indexes recClasses with the class this call site alone would give
// its SCC.
func (c recCall) rank() int {
	switch {
	case c.underConc:
		return 3
	case !c.tail:
		return 2
	default:
		return 1
	}
}

// placeRecursion lists the recursive call sites of every rule on a cycle
// and folds them into the per-SCC recursion class and the placement half of
// Features. The class is a property of the SCC: one conc-recursive or
// non-tail call anywhere in the cycle taints every member.
func (f *Facts) placeRecursion() {
	for ri, r := range f.prog.Rules {
		if from := f.nodeIdx[litKey(r.Head)]; f.inCycle[from] {
			f.recursiveCalls(ri, from, r.Body, true, false, false)
		}
	}

	sccRank := make(map[int]int)
	feats := &f.features
	feats.TailOnlyRecursion = len(f.recCalls) > 0
	for _, c := range f.recCalls {
		scc := f.sccID[f.nodeIdx[litKey(c.lit.Atom)]]
		sccRank[scc] = max(sccRank[scc], c.rank())
		feats.TailOnlyRecursion = feats.TailOnlyRecursion && c.tail
		feats.RecursionUnderConc = feats.RecursionUnderConc || c.underConc
		feats.RecursionUnderIso = feats.RecursionUnderIso || c.underIso
	}
	f.recClass = make([]string, len(f.nodes))
	for x, k := range f.nodes {
		f.recClass[x] = recClasses[sccRank[f.sccID[x]]]
		if f.inCycle[x] {
			feats.Recursive = true
			feats.RecursivePreds = append(feats.RecursivePreds, k.String())
		}
	}
	sort.Strings(feats.RecursivePreds)
}

// recursiveCalls is the one recursive-call placement walker: it descends
// the body of rule ri (head node from) and records every call into from's
// own SCC together with its placement. A call is in tail position only as
// the last step of the top-level sequence; '|' and iso both end the
// sequential spine.
func (f *Facts) recursiveCalls(ri, from int, g ast.Goal, tail, underConc, underIso bool) {
	switch g := g.(type) {
	case *ast.Lit:
		if g.Op != ast.OpCall {
			return
		}
		if to, ok := f.nodeIdx[litKey(g.Atom)]; ok && f.inCycle[to] && f.sccID[to] == f.sccID[from] {
			f.recCalls = append(f.recCalls, recCall{rule: ri, lit: g, tail: tail, underConc: underConc, underIso: underIso})
		}
	case *ast.Seq:
		for i, sub := range g.Goals {
			f.recursiveCalls(ri, from, sub, tail && i == len(g.Goals)-1, underConc, underIso)
		}
	case *ast.Conc:
		for _, sub := range g.Goals {
			f.recursiveCalls(ri, from, sub, false, true, underIso)
		}
	case *ast.Iso:
		f.recursiveCalls(ri, from, g.Body, false, underConc, true)
	}
}

// ---------------------------------------------------------------- boundness --

// varset tracks variables known bound at the current point of a
// left-to-right scan (sideways information passing).
type varset map[int64]bool

func (s varset) add(t term.Term) {
	if t.IsVar() {
		s[t.VarID()] = true
	}
}

func (s varset) has(t term.Term) bool { return !t.IsVar() || s[t.VarID()] }

func (s varset) clone() varset {
	out := make(varset, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func isArith(name string) bool {
	switch name {
	case "add", "sub", "mul", "div", "mod":
		return true
	}
	return false
}

// builtinIO splits a builtin's arguments by role. eq unifies, so either
// side may bind the other: it has no fixed inputs and both arguments are
// outputs (unify is true). Arithmetic reads its first two arguments and
// binds the third. Everything else — comparisons, neq, and an eq or
// arithmetic builtin at the wrong arity, which the engine rejects at run
// time — reads all of its arguments and binds none.
func builtinIO(name string, args []term.Term) (in, out []term.Term, unify bool) {
	switch {
	case name == "eq" && len(args) == 2:
		return nil, args, true
	case isArith(name) && len(args) == 3:
		return args[:2], args[2:], false
	}
	return args, nil, false
}

// walkBound is the one left-to-right boundness walker. It scans g in the
// order the prover executes it and calls visit at every literal and builtin
// with the set of variables known bound just before that goal runs, then
// extends the set with the bindings the goal makes: queries bind by
// matching tuples, calls are assumed to bind their arguments (the engine's
// runtime groundness check backstops), eq binds both sides, arithmetic
// binds its output, updates bind nothing. Interleaving order is not
// statically known, so a '|' branch sees only the bindings made before the
// composition; after it every branch has succeeded and all their bindings
// hold. A builtin still in call form (a program built without
// Program.Analyze) is visited as the *ast.Builtin it denotes.
func walkBound(g ast.Goal, bound varset, visit func(g ast.Goal, bound varset)) {
	switch g := g.(type) {
	case *ast.Lit:
		if g.Op == ast.OpCall && ast.IsBuiltinName(g.Atom.Pred) {
			walkBound(&ast.Builtin{Name: g.Atom.Pred, Args: g.Atom.Args, Pos: g.Pos}, bound, visit)
			return
		}
		visit(g, bound)
		if g.Op == ast.OpQuery || g.Op == ast.OpCall {
			for _, t := range g.Atom.Args {
				bound.add(t)
			}
		}
	case *ast.Builtin:
		visit(g, bound)
		_, out, _ := builtinIO(g.Name, g.Args)
		for _, t := range out {
			bound.add(t)
		}
	case *ast.Seq:
		for _, sub := range g.Goals {
			walkBound(sub, bound, visit)
		}
	case *ast.Conc:
		after := bound.clone()
		for _, sub := range g.Goals {
			branch := bound.clone()
			walkBound(sub, branch, visit)
			for k := range branch {
				after[k] = true
			}
		}
		for k := range after {
			bound[k] = true
		}
	case *ast.Iso:
		walkBound(g.Body, bound, visit)
	}
}

// unsafe calls yield for every update or builtin a left-to-right scan
// reaches with a possibly-unbound variable it needs ground: rule is the
// index into Program.Rules (head variables count as bound: callers are
// assumed to bind them), or -1 for a ?- query.
func (f *Facts) unsafe(yield func(rule int, at ast.Goal, problem string)) {
	check := func(rule int, body ast.Goal, bound varset) {
		walkBound(body, bound, func(g ast.Goal, bound varset) {
			switch g := g.(type) {
			case *ast.Lit:
				if g.Op != ast.OpIns && g.Op != ast.OpDel {
					return
				}
				for _, t := range g.Atom.Args {
					if !bound.has(t) {
						yield(rule, g, fmt.Sprintf("variable %s may be unbound at %s", t, g))
					}
				}
			case *ast.Builtin:
				in, out, unify := builtinIO(g.Name, g.Args)
				if unify && !bound.has(out[0]) && !bound.has(out[1]) {
					yield(rule, g, fmt.Sprintf("both sides of %s may be unbound", g))
				}
				for _, t := range in {
					if !bound.has(t) {
						yield(rule, g, fmt.Sprintf("variable %s may be unbound at builtin %s", t, g))
					}
				}
			}
		})
	}
	for i, r := range f.prog.Rules {
		bound := varset{}
		for _, t := range r.Head.Vars(nil) {
			bound.add(t)
		}
		check(i, r.Body, bound)
	}
	for _, q := range f.prog.Queries {
		check(-1, q, varset{})
	}
}
