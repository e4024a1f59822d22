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

// Recursion classes in a tabling certificate, from most benign to least:
// no recursion, sequential tail recursion (iteration), non-tail recursion
// (stacked descents), and recursion through '|' (unbounded process
// creation, Theorem 4.4 — never tabling-eligible).
const (
	RecNone    = "none"
	RecTail    = "tail"
	RecNonTail = "nontail"
	RecConc    = "conc"
)

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
	// recursive through '|' — memoizing per snapshot version is sound.
	TablingEligible bool `json:"tabling_eligible"`
	// Adornments lists the binding patterns the dataflow found, in
	// discovery order (capped at maxAdornments).
	Adornments []string `json:"adornments,omitempty"`
	// Support is the predicate's base-relation support set: every stored
	// relation whose content the predicate's answers can depend on,
	// transitively through the call graph. Entries are "name/arity" for
	// relation reads (queries, rule-less calls) and a bare "name" for
	// predicate-level reads (empty.p observes every arity). Sorted. This
	// is the set a snapshot-versioned memo table keys its version vector
	// on: if none of these relations changed, a cached answer multiset is
	// still exact.
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
func Plan(prog *ast.Program) *PlanReport {
	p := &planner{vetter: newVetter(prog)}
	p.certify()
	p.adorn = p.adornments()
	rep := &PlanReport{SchemaVersion: PlanSchemaVersion}
	p.reorderAll(rep)
	p.report(rep)
	rep.Diags, rep.Suppressed = applyPragmas(p.diags, prog.Pragmas)
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

// planner carries one Plan run: the vetter's predicate tables and call
// graph, plus the certificate and adornment results.
type planner struct {
	*vetter
	updateFree []bool // per node: no ins/del reachable
	isoFree    []bool // per node: no iso reachable
	recClass   []string
	support    []map[string]bool // per node: reachable base-relation reads
	adorn      map[predKey]*adornSet
}

// certify computes the per-predicate tabling facts: update-freedom and
// iso-freedom as a reverse-reachability fixpoint over the call graph, and
// the recursion class per SCC.
func (p *planner) certify() {
	n := len(p.nodes)
	directUpd := make([]bool, n)
	directIso := make([]bool, n)
	for _, r := range p.prog.Rules {
		idx := p.nodeIdx[litKey(r.Head)]
		ast.Walk(r.Body, func(sub ast.Goal) bool {
			switch sub := sub.(type) {
			case *ast.Lit:
				if sub.Op == ast.OpIns || sub.Op == ast.OpDel {
					directUpd[idx] = true
				}
			case *ast.Iso:
				directIso[idx] = true
			}
			return true
		})
	}
	fixpoint := func(direct []bool) []bool {
		free := p.reaching(direct)
		for i := range free {
			free[i] = !free[i]
		}
		return free
	}
	p.updateFree = fixpoint(directUpd)
	p.isoFree = fixpoint(directIso)
	p.supportSets()

	// Recursion class is a property of the SCC: one conc-recursive or
	// non-tail clause anywhere in the cycle taints every member.
	rank := map[string]int{RecNone: 0, RecTail: 1, RecNonTail: 2, RecConc: 3}
	sccClass := make(map[int]string)
	for _, r := range p.prog.Rules {
		from := p.nodeIdx[litKey(r.Head)]
		if !p.inCycle[from] {
			continue
		}
		class := RecTail
		if p.concRecursive(from, r.Body, false) {
			class = RecConc
		} else if p.hasNonTailRecursion(from, r.Body, true) {
			class = RecNonTail
		}
		scc := p.sccID[from]
		if rank[class] > rank[sccClass[scc]] {
			sccClass[scc] = class
		}
	}
	p.recClass = make([]string, n)
	for i := range p.recClass {
		if !p.inCycle[i] {
			p.recClass[i] = RecNone
		} else if c := sccClass[p.sccID[i]]; c != "" {
			p.recClass[i] = c
		} else {
			p.recClass[i] = RecTail
		}
	}
}

// supportSets computes each predicate's base-relation support set: the
// stored relations whose content its answers can depend on, transitively
// through the call graph. Direct reads are base-relation queries, calls
// to rule-less predicates (the engine evaluates them as queries), and
// emptiness tests (recorded as a bare predicate name: empty.p observes
// every arity of p). Update targets are not support entries — a predicate
// that reaches an update is never tabling-eligible, so its support set is
// advisory only. The closure mirrors certify's reverse-reachability
// fixpoint over the call edges.
func (p *planner) supportSets() {
	n := len(p.nodes)
	p.support = make([]map[string]bool, n)
	for i := range p.support {
		p.support[i] = make(map[string]bool)
	}
	for _, r := range p.prog.Rules {
		idx := p.nodeIdx[litKey(r.Head)]
		ast.Walk(r.Body, func(sub ast.Goal) bool {
			switch sub := sub.(type) {
			case *ast.Lit:
				switch sub.Op {
				case ast.OpQuery:
					p.support[idx][litKey(sub.Atom).String()] = true
				case ast.OpCall:
					if ast.IsBuiltinName(sub.Atom.Pred) {
						break
					}
					if !p.derived[litKey(sub.Atom)] {
						p.support[idx][litKey(sub.Atom).String()] = true
					}
				}
			case *ast.Empty:
				p.support[idx][sub.Pred] = true
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for from := 0; from < n; from++ {
			for _, to := range p.edges[from] {
				for e := range p.support[to] {
					if !p.support[from][e] {
						p.support[from][e] = true
						changed = true
					}
				}
			}
		}
	}
}

// Support resolves a derived predicate's base-relation support set by key,
// sorted; nil when the predicate is unknown or reads nothing.
func (p *planner) Support(k predKey) []string {
	idx, ok := p.nodeIdx[k]
	if !ok || len(p.support[idx]) == 0 {
		return nil
	}
	out := make([]string, 0, len(p.support[idx]))
	for e := range p.support[idx] {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// concRecursive reports whether g contains an intra-SCC recursive call
// under concurrent composition.
func (p *planner) concRecursive(from int, g ast.Goal, underConc bool) bool {
	switch g := g.(type) {
	case *ast.Lit:
		return underConc && p.isRecursiveCall(from, g)
	case *ast.Seq:
		for _, sub := range g.Goals {
			if p.concRecursive(from, sub, underConc) {
				return true
			}
		}
	case *ast.Conc:
		for _, sub := range g.Goals {
			if p.concRecursive(from, sub, true) {
				return true
			}
		}
	case *ast.Iso:
		return p.concRecursive(from, g.Body, underConc)
	}
	return false
}

// nodeCert resolves a derived predicate's certificate facts by key.
func (p *planner) nodeCert(k predKey) (updateFree, isoFree bool, class string) {
	idx, ok := p.nodeIdx[k]
	if !ok {
		return false, false, RecNone
	}
	return p.updateFree[idx], p.isoFree[idx], p.recClass[idx]
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

// classify buckets one top-level goal of a sequential body.
func (p *planner) classify(g ast.Goal) litClass {
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
			upd, iso, class := p.nodeCert(k)
			if upd && iso && class == RecNone {
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

// goalNeeds returns the variables of g whose groundness its evaluation
// relies on: all arguments for comparisons, neq, and movable calls; the
// two inputs for arithmetic. eq is special-cased by the caller (it needs
// only one side bound, either one).
func goalNeeds(g ast.Goal) (vars []term.Term, eqArgs []term.Term) {
	switch g := g.(type) {
	case *ast.Lit: // builtin in call form, or a movable call
		if ast.IsBuiltinName(g.Atom.Pred) {
			return builtinNeeds(g.Atom.Pred, g.Atom.Args)
		}
		return g.Atom.Args, nil
	case *ast.Builtin:
		return builtinNeeds(g.Name, g.Args)
	}
	return nil, nil
}

func builtinNeeds(name string, args []term.Term) (vars []term.Term, eqArgs []term.Term) {
	if name == "eq" && len(args) == 2 {
		return nil, args
	}
	if isArith(name) && len(args) == 3 {
		return args[:2], nil
	}
	return args, nil
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
		var name string
		var args []term.Term
		switch g := g.(type) {
		case *ast.Lit:
			name, args = g.Atom.Pred, g.Atom.Args
		case *ast.Builtin:
			name, args = g.Name, g.Args
		}
		if name == "eq" && len(args) == 2 {
			if cur.has(args[0]) || cur.has(args[1]) {
				cur.add(args[0])
				cur.add(args[1])
			}
			return
		}
		if isArith(name) && len(args) == 3 {
			cur.add(args[2])
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
		classes[i] = p.classify(g)
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

// reorderAll computes every rule variant and the reorder diagnostics.
func (p *planner) reorderAll(rep *PlanReport) {
	for _, k := range p.nodes {
		rules := p.prog.RulesFor(k.pred, k.arity)
		set := p.adorn[k]
		if set == nil {
			continue
		}
		for _, ad := range set.list {
			var variant []ast.Rule
			for ri, r := range rules {
				order := p.reorderBody(r, ad)
				if order == nil {
					continue
				}
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
	}
}

// report assembles the per-predicate certificates, sorted by name/arity.
func (p *planner) report(rep *PlanReport) {
	ordered := make([]predKey, len(p.nodes))
	copy(ordered, p.nodes)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].pred != ordered[j].pred {
			return ordered[i].pred < ordered[j].pred
		}
		return ordered[i].arity < ordered[j].arity
	})
	for _, k := range ordered {
		upd, iso, class := p.nodeCert(k)
		pp := PredPlan{
			Pred:             k.String(),
			Derived:          true,
			UpdateFree:       upd,
			HypotheticalFree: iso,
			Recursion:        class,
			TablingEligible:  upd && iso && class != RecConc,
			Support:          p.Support(k),
		}
		if set := p.adorn[k]; set != nil {
			pp.Adornments = append(pp.Adornments, set.list...)
		}
		rules := p.prog.RulesFor(k.pred, k.arity)
		for ri, r := range rules {
			rp := RulePlan{Rule: ri, Line: r.Pos.Line}
			if set := p.adorn[k]; set != nil {
				for _, ad := range set.list {
					if order := p.reorderBody(r, ad); order != nil {
						rp.Orders = append(rp.Orders, OrderPlan{Adornment: ad, Order: order})
					}
				}
			}
			if len(rp.Orders) > 0 {
				pp.Rules = append(pp.Rules, rp)
			}
		}
		rep.Predicates = append(rep.Predicates, pp)
	}
}
