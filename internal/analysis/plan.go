// tdplan: the static planning phase. Plan combines three analyses into one
// PlanReport:
//
//  1. the adornment dataflow (adorn.go): which binding patterns each
//     derived predicate is invoked with;
//  2. a literal reorderer: per rule body and head adornment, reorder
//     sequential conjunctions by bound-argument selectivity — point
//     lookups and first-arg-bound scans before free scans, bound builtins
//     as early as their inputs allow — restricted to provably
//     semantics-preserving moves (never across updates, '|' branches, or
//     iso boundaries; see the legality rules on segmentRuns);
//  3. a tabling-safety certificate per derived predicate (update-free,
//     hypothetical-free, recursion class), the input the future
//     memoization layer consumes.
//
// The report is pure data: the engine applies the reordered rule variants
// (Variants) at load time under EngineOptions.Plan, tdvet -plan renders it
// for humans and CI, and the server's PLAN verb ships it as JSON.
package analysis

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/term"
)

// PlanSchemaVersion identifies the PlanReport JSON shape for downstream
// tooling.
const PlanSchemaVersion = 1

// PlanReport is the result of planning one program.
type PlanReport struct {
	SchemaVersion int `json:"schema_version"`
	// Predicates holds one certificate per derived predicate, sorted by
	// name then arity.
	Predicates []PredPlan `json:"predicates"`
	// Reorders counts (rule, adornment) pairs whose body order changed.
	Reorders int `json:"reorders"`
	// Diags carries the SevInfo reorder diagnostics that survived
	// tdvet:ignore pragmas, in source order.
	Diags []Diagnostic `json:"diagnostics,omitempty"`
	// Suppressed counts plan diagnostics dropped by pragmas.
	Suppressed int `json:"suppressed,omitempty"`

	variants []PlanVariant // reordered rule sets, not serialized
}

// PredPlan is one derived predicate's tabling certificate plus its
// adornments and reorder decisions.
type PredPlan struct {
	Pred    string `json:"pred"` // "name/arity"
	Derived bool   `json:"derived"`
	// UpdateFree: no ins/del is reachable through the predicate's rules
	// (transitively, over the call graph).
	UpdateFree bool `json:"update_free"`
	// HypotheticalFree: no iso sub-transaction is reachable. Isolation is
	// the modality standing in for TR's hypothetical operators in this
	// fragment; a tabled result must not depend on one.
	HypotheticalFree bool `json:"hypothetical_free"`
	// Recursion is the predicate's recursion class (RecNone..RecConc),
	// a property of its call-graph SCC.
	Recursion string `json:"recursion"`
	// TablingEligible: derived, update-free, hypothetical-free, and not
	// recursive through '|' — its answers are a function of what its
	// proof search reads, so memoizing them is sound.
	TablingEligible bool `json:"tabling_eligible"`
	// Adornments lists the binding patterns the dataflow found, in
	// discovery order (capped at maxAdornments).
	Adornments []string `json:"adornments,omitempty"`
	// Support is the predicate's base-relation support set: every stored
	// relation whose content the predicate's answers can depend on,
	// transitively through the call graph. Entries are "name/arity" for
	// relation reads (queries, rule-less calls) and a bare "name" for
	// predicate-level reads (empty.p observes every arity). Sorted.
	// Report only: it is the static over-approximation of what any call
	// can read. The engine's memo tables validate each entry against what
	// its own proof search did read (engine/memo.go).
	Support []string   `json:"support,omitempty"`
	Rules   []RulePlan `json:"rules,omitempty"`
}

// RulePlan records the reorder decisions for one rule of a predicate.
type RulePlan struct {
	// Rule is the rule's index among the predicate's rules, in source
	// order.
	Rule int `json:"rule"`
	Line int `json:"line,omitempty"`
	// Orders holds one entry per adornment under which the body order
	// changed; identity orders are omitted.
	Orders []OrderPlan `json:"orders,omitempty"`
}

// OrderPlan is one reordered body: Order[k] is the textual index of the
// literal evaluated at position k.
type OrderPlan struct {
	Adornment string `json:"adornment"`
	Order     []int  `json:"order"`
}

// PlanVariant is one reordered rule set: under Adornment, the engine
// should evaluate Pred/Arity with Rules (same heads and rule order as the
// program's, bodies permuted). Rules are fresh values — the program's own
// rules are never mutated.
type PlanVariant struct {
	Pred      string
	Arity     int
	Adornment string
	Rules     []ast.Rule
}

// Variants returns the reordered rule sets the engine applies at load
// time. Only (predicate, adornment) pairs where at least one body changed
// are present; everything else falls back to textual order.
func (r *PlanReport) Variants() []PlanVariant { return r.variants }

// Plan runs the tdplan analyses over prog and returns the report. Like
// Vet, it never mutates prog and runs no transactions.
func Plan(prog *ast.Program) *PlanReport { return Analyze(prog).Plan() }

// Plan folds the facts into the tdplan report.
func (f *Facts) Plan() *PlanReport {
	p := &planner{vetter: vetter{Facts: f}, adorn: f.adornments()}
	p.certify()
	rep := &PlanReport{SchemaVersion: PlanSchemaVersion}
	p.report(rep, p.reorderAll(rep))
	rep.Diags, rep.Suppressed = applyPragmas(p.diags, f.prog.Pragmas)
	sort.SliceStable(rep.Diags, func(i, j int) bool {
		a, b := rep.Diags[i], rep.Diags[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Msg < b.Msg
	})
	return rep
}

// PlanSource parses src and plans the program. Parse errors are returned
// as is; the report is nil in that case.
func PlanSource(src string) (*PlanReport, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return Plan(prog), nil
}

// planner carries one Plan run: the facts and diagnostics of a vetter,
// plus the certificate and adornment results.
type planner struct {
	vetter
	updateFree []bool            // per node: no ins/del reachable
	isoFree    []bool            // per node: no iso reachable
	support    []map[string]bool // per node: reachable base-relation reads
	adorn      map[predKey]*adornSet
}

// certify computes the per-predicate tabling facts the call graph does not
// already carry: update-freedom and iso-freedom (no rule reachable through
// the call graph contains one), and each predicate's base-relation support
// set — the stored relations whose content its answers can depend on,
// transitively through the call graph. Direct reads are base-relation
// queries, calls to rule-less predicates (the engine evaluates them as
// queries), and emptiness tests (recorded as a bare predicate name:
// empty.p observes every arity of p). Update targets are not support
// entries — a predicate that reaches an update is never tabling-eligible,
// so its support set is advisory only.
func (p *planner) certify() {
	n := len(p.nodes)
	directUpd := make([]bool, n)
	directIso := make([]bool, n)
	p.support = make([]map[string]bool, n)
	for i := range p.support {
		p.support[i] = make(map[string]bool)
	}
	for _, r := range p.prog.Rules {
		idx := p.nodeIdx[litKey(r.Head)]
		ast.Walk(r.Body, func(sub ast.Goal) bool {
			switch sub := sub.(type) {
			case *ast.Lit:
				k := litKey(sub.Atom)
				switch sub.Op {
				case ast.OpIns, ast.OpDel:
					directUpd[idx] = true
				case ast.OpQuery:
					p.support[idx][k.String()] = true
				case ast.OpCall:
					if !ast.IsBuiltinName(k.pred) && !p.derived[k] {
						p.support[idx][k.String()] = true
					}
				}
			case *ast.Iso:
				directIso[idx] = true
			case *ast.Empty:
				p.support[idx][sub.Pred] = true
			}
			return true
		})
	}
	free := func(direct []bool) []bool {
		reach := p.reaching(direct)
		for i := range reach {
			reach[i] = !reach[i]
		}
		return reach
	}
	p.updateFree = free(directUpd)
	p.isoFree = free(directIso)
	p.fixpoint(func(from, to int) bool {
		changed := false
		for e := range p.support[to] {
			if !p.support[from][e] {
				p.support[from][e] = true
				changed = true
			}
		}
		return changed
	})
}

// sortedSupport lists node idx's support set, sorted; nil when the
// predicate reads nothing.
func (p *planner) sortedSupport(idx int) []string {
	if len(p.support[idx]) == 0 {
		return nil
	}
	out := make([]string, 0, len(p.support[idx]))
	for e := range p.support[idx] {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// --------------------------------------------------------- reorder legality --

// litClass buckets one top-level body goal for the reorderer.
type litClass uint8

const (
	// classBarrier: the goal pins its position. Updates change the
	// database mid-sequence; '|' compositions interleave with their
	// context; iso bodies are atomic sub-transactions; calls into
	// updating, iso-using, or recursive predicates inherit all three
	// hazards (recursive calls additionally so a reorder can never turn a
	// terminating textual order into a divergent one). Nothing moves
	// across a barrier in either direction.
	classBarrier litClass = iota
	// classQuery: a base-relation query (or a rule-less call, which the
	// engine evaluates as one). Read-only, cannot fail with an error, and
	// binds its arguments to ground tuple fields — freely movable within
	// its run.
	classQuery
	// classEmpty: an emptiness test. Read-only and error-free; freely
	// movable within its run.
	classEmpty
	// classBuiltin: comparison/arithmetic/unification. Read-only but may
	// error on unbound or non-integer inputs, so movement is constrained:
	// builtins keep their relative order among non-query goals, and any
	// input that was certainly bound at the textual position must still
	// be bound at the planned position.
	classBuiltin
	// classCall: a call to a derived predicate that is update-free,
	// iso-free, and non-recursive. Read-only, but its body may contain
	// builtins that relied on the caller's bindings, so it moves under
	// the same constraints as a builtin; it binds its arguments only
	// optimistically (a succeeding call may leave them unbound), so it
	// contributes nothing to the certainly-bound set.
	classCall
)

// litClassOf buckets one top-level goal of a sequential body.
func (p *planner) litClassOf(g ast.Goal) litClass {
	switch g := g.(type) {
	case *ast.Lit:
		switch g.Op {
		case ast.OpQuery:
			return classQuery
		case ast.OpCall:
			if ast.IsBuiltinName(g.Atom.Pred) {
				return classBuiltin
			}
			k := litKey(g.Atom)
			if !p.derived[k] {
				return classQuery
			}
			if idx := p.nodeIdx[k]; p.updateFree[idx] && p.isoFree[idx] && p.recClass[idx] == RecNone {
				return classCall
			}
			return classBarrier
		default: // ins/del
			return classBarrier
		}
	case *ast.Empty:
		return classEmpty
	case *ast.Builtin:
		return classBuiltin
	default: // Conc, Iso, anything unknown
		return classBarrier
	}
}

// isOrderedClass reports whether the class keeps relative order among its
// peers (legality rule: non-query goals never pass each other).
func isOrderedClass(c litClass) bool { return c == classBuiltin || c == classCall }

// builtinOf returns the name and arguments of a builtin goal, in either
// its resolved (*ast.Builtin) or its call form.
func builtinOf(g ast.Goal) (name string, args []term.Term, ok bool) {
	switch g := g.(type) {
	case *ast.Lit:
		return g.Atom.Pred, g.Atom.Args, ast.IsBuiltinName(g.Atom.Pred)
	case *ast.Builtin:
		return g.Name, g.Args, true
	}
	return "", nil, false
}

// goalNeeds returns the variables of g whose groundness its evaluation
// relies on: all arguments for comparisons, neq, and movable calls; the
// two inputs for arithmetic. eq is special-cased by the caller (it needs
// only one side bound, either one).
func goalNeeds(g ast.Goal) (vars []term.Term, eqArgs []term.Term) {
	if name, args, ok := builtinOf(g); ok {
		in, out, unify := builtinIO(name, args)
		if unify {
			return nil, out
		}
		return in, nil
	}
	if l, ok := g.(*ast.Lit); ok { // a movable call
		return l.Atom.Args, nil
	}
	return nil, nil
}

// certainUpdate extends the certainly-bound set with the bindings g is
// guaranteed to make when it succeeds: queries ground their arguments
// against stored tuples, arithmetic grounds its output, eq grounds both
// sides when either is ground. Calls add nothing (optimistic bindings are
// not certain).
func certainUpdate(g ast.Goal, class litClass, cur varset) {
	switch class {
	case classQuery:
		if l, ok := g.(*ast.Lit); ok {
			for _, t := range l.Atom.Args {
				cur.add(t)
			}
		}
	case classBuiltin:
		name, args, _ := builtinOf(g)
		_, out, unify := builtinIO(name, args)
		if unify && !cur.has(out[0]) && !cur.has(out[1]) {
			return
		}
		for _, t := range out {
			cur.add(t)
		}
	}
}

// goalCost ranks a goal's expected selectivity given the certainly-bound
// set: cheap, narrowing goals run first. Lower is earlier; ties keep
// textual order.
func goalCost(g ast.Goal, class litClass, cur varset) int {
	argsOf := func() []term.Term {
		if l, ok := g.(*ast.Lit); ok {
			return l.Atom.Args
		}
		if b, ok := g.(*ast.Builtin); ok {
			return b.Args
		}
		return nil
	}
	switch class {
	case classBuiltin:
		for _, t := range argsOf() {
			if !cur.has(t) {
				return 1
			}
		}
		return 0 // a fully bound builtin is a pure filter
	case classQuery:
		args := argsOf()
		if len(args) == 0 {
			return 1
		}
		bound := 0
		for _, t := range args {
			if cur.has(t) {
				bound++
			}
		}
		switch {
		case bound == len(args):
			return 1 // point lookup
		case cur.has(args[0]):
			return 2 // first-arg index scan
		case bound > 0:
			return 4
		default:
			return 6 // free scan
		}
	case classEmpty:
		return 3
	case classCall:
		for _, t := range argsOf() {
			if !cur.has(t) {
				return 7
			}
		}
		return 5
	}
	return 0
}

// maxRunLen bounds the goals the greedy reorderer considers in one run;
// longer runs are left in textual order (the scan is quadratic).
const maxRunLen = 64

// reorderBody plans one rule body under one head adornment. It returns
// the full-body permutation (order[k] = textual index evaluated at k) or
// nil when the planned order is textual order. Only top-level sequential
// conjunctions are reordered; runs are the maximal barrier-free windows.
func (p *planner) reorderBody(r ast.Rule, ad string) []int {
	seq, ok := r.Body.(*ast.Seq)
	if !ok {
		return nil
	}
	goals := seq.Goals
	n := len(goals)
	classes := make([]litClass, n)
	for i, g := range goals {
		classes[i] = p.litClassOf(g)
	}
	order := make([]int, 0, n)
	cur := boundPositions(r.Head, ad)
	changed := false
	for lo := 0; lo < n; {
		if classes[lo] == classBarrier {
			order = append(order, lo)
			// Barriers contribute no certain bindings: updates require
			// ground arguments, conc/iso bindings are not relied on.
			lo++
			continue
		}
		hi := lo
		for hi < n && classes[hi] != classBarrier {
			hi++
		}
		run := p.reorderRun(goals[lo:hi], classes[lo:hi], cur)
		for k, idx := range run {
			if idx != k {
				changed = true
			}
			order = append(order, lo+idx)
		}
		// Advance the certain set over the run in planned order.
		for _, idx := range run {
			certainUpdate(goals[lo+idx], classes[lo+idx], cur)
		}
		lo = hi
	}
	if !changed {
		return nil
	}
	return order
}

// reorderRun greedily orders one barrier-free window: repeatedly pick the
// cheapest eligible goal. Eligibility enforces the two legality rules —
// non-query goals (builtins, movable calls) keep their textual relative
// order, and a builtin/call may only be placed once every input that was
// certainly bound at its textual position is certainly bound again. The
// textually-first unplaced goal is always eligible, so the loop cannot
// stall; if it ever did, the run would fall back to textual order.
func (p *planner) reorderRun(goals []ast.Goal, classes []litClass, entry varset) []int {
	n := len(goals)
	identity := func() []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if n < 2 || n > maxRunLen {
		return identity()
	}

	// Textual pass: which of each goal's needed variables are certainly
	// bound at its textual position? Those must be bound again at the
	// planned position. eq needs one side, either one.
	needs := make([][]int64, n)
	eqNeed := make([]bool, n) // needs at least one eq side bound
	eqVars := make([][]term.Term, n)
	tc := entry.clone()
	for i, g := range goals {
		vars, eqArgs := goalNeeds(g)
		if isOrderedClass(classes[i]) {
			for _, t := range vars {
				if t.IsVar() && tc.has(t) {
					needs[i] = append(needs[i], t.VarID())
				}
			}
			if eqArgs != nil && (tc.has(eqArgs[0]) || tc.has(eqArgs[1])) {
				eqNeed[i] = true
				eqVars[i] = eqArgs
			}
		}
		certainUpdate(g, classes[i], tc)
	}

	cur := entry.clone()
	used := make([]bool, n)
	out := make([]int, 0, n)
	nextOrdered := 0 // textually next unplaced builtin/call
	advance := func() {
		for nextOrdered < n && (used[nextOrdered] || !isOrderedClass(classes[nextOrdered])) {
			nextOrdered++
		}
	}
	advance()
	for len(out) < n {
		best, bestCost := -1, 0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if isOrderedClass(classes[i]) && i != nextOrdered {
				continue
			}
			ok := true
			for _, id := range needs[i] {
				if !cur[id] {
					ok = false
					break
				}
			}
			if ok && eqNeed[i] && !cur.has(eqVars[i][0]) && !cur.has(eqVars[i][1]) {
				ok = false
			}
			if !ok {
				continue
			}
			if c := goalCost(goals[i], classes[i], cur); best == -1 || c < bestCost {
				best, bestCost = i, c
			}
		}
		if best == -1 {
			return identity() // cannot happen; keep the sound fallback
		}
		used[best] = true
		out = append(out, best)
		certainUpdate(goals[best], classes[best], cur)
		advance()
	}
	return out
}

// permuteBody builds the reordered body: a fresh Seq holding the original
// goal nodes in planned order. The original rule and its body are shared
// with the program and never mutated.
func permuteBody(body ast.Goal, order []int) ast.Goal {
	seq := body.(*ast.Seq)
	goals := make([]ast.Goal, len(order))
	for k, idx := range order {
		goals[k] = seq.Goals[idx]
	}
	return ast.NewSeq(goals...)
}

// adornLabel renders an adornment for humans: path^bf; ^ε for arity 0.
func adornLabel(ad string) string {
	if ad == "" {
		return "^ε"
	}
	return "^" + ad
}

// reorderAll plans every (rule, adornment) pair once: it collects the rule
// variants and reorder diagnostics into rep and returns, per predicate, the
// rules whose body order changed under some adornment.
func (p *planner) reorderAll(rep *PlanReport) map[predKey][]RulePlan {
	changed := make(map[predKey][]RulePlan)
	for _, k := range p.nodes {
		rules := p.prog.RulesFor(k.pred, k.arity)
		plans := make([]RulePlan, len(rules))
		for ri, r := range rules {
			plans[ri] = RulePlan{Rule: ri, Line: r.Pos.Line}
		}
		for _, ad := range p.adorn[k].list {
			var variant []ast.Rule
			for ri, r := range rules {
				order := p.reorderBody(r, ad)
				if order == nil {
					continue
				}
				plans[ri].Orders = append(plans[ri].Orders, OrderPlan{Adornment: ad, Order: order})
				if variant == nil {
					variant = make([]ast.Rule, len(rules))
					copy(variant, rules)
				}
				variant[ri] = ast.Rule{Head: r.Head, Body: permuteBody(r.Body, order), Pos: r.Pos}
				rep.Reorders++
				p.diag(r.Pos, SevInfo, LintPlan,
					fmt.Sprintf("plan: body of %s%s reordered: %v", k, adornLabel(ad), order),
					citePlan)
			}
			if variant != nil {
				rep.variants = append(rep.variants, PlanVariant{
					Pred: k.pred, Arity: k.arity, Adornment: ad, Rules: variant,
				})
			}
		}
		for _, rp := range plans {
			if len(rp.Orders) > 0 {
				changed[k] = append(changed[k], rp)
			}
		}
	}
	return changed
}

// report assembles the per-predicate certificates, sorted by name/arity.
func (p *planner) report(rep *PlanReport, changed map[predKey][]RulePlan) {
	ordered := make([]predKey, len(p.nodes))
	copy(ordered, p.nodes)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].pred != ordered[j].pred {
			return ordered[i].pred < ordered[j].pred
		}
		return ordered[i].arity < ordered[j].arity
	})
	for _, k := range ordered {
		idx := p.nodeIdx[k]
		upd, iso, class := p.updateFree[idx], p.isoFree[idx], p.recClass[idx]
		rep.Predicates = append(rep.Predicates, PredPlan{
			Pred:             k.String(),
			Derived:          true,
			UpdateFree:       upd,
			HypotheticalFree: iso,
			Recursion:        class,
			TablingEligible:  upd && iso && class != RecConc,
			Adornments:       append([]string(nil), p.adorn[k].list...),
			Support:          p.sortedSupport(idx),
			Rules:            changed[k],
		})
	}
}
