package analysis

import (
	"fmt"

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

// vetter carries the shared state of one Vet run: predicate tables, the
// call graph of derived predicates with its SCC decomposition (the same
// construction internal/fragments uses, rebuilt here so diagnostics can
// anchor to literal positions), and the accumulating diagnostics.
type vetter struct {
	prog  *ast.Program
	diags []Diagnostic

	derived  map[predKey]bool // defined by at least one rule
	hasFacts map[predKey]bool // appears as a fact
	inserted map[predKey]bool // target of some ins.
	deleted  map[predKey]bool // target of some del.

	nodes   []predKey       // derived predicates, in first-rule order
	nodeIdx map[predKey]int // predKey -> index into nodes
	edges   map[int][]int   // call edges between derived predicates
	sccID   []int           // Tarjan SCC id per node
	inCycle map[int]bool    // node sits on a call-graph cycle
}

func newVetter(prog *ast.Program) *vetter {
	v := &vetter{
		prog:     prog,
		derived:  make(map[predKey]bool),
		hasFacts: make(map[predKey]bool),
		inserted: make(map[predKey]bool),
		deleted:  make(map[predKey]bool),
		nodeIdx:  make(map[predKey]int),
		edges:    make(map[int][]int),
	}
	for _, r := range prog.Rules {
		k := litKey(r.Head)
		v.derived[k] = true
		if _, ok := v.nodeIdx[k]; !ok {
			v.nodeIdx[k] = len(v.nodes)
			v.nodes = append(v.nodes, k)
		}
	}
	for _, f := range prog.Facts {
		v.hasFacts[litKey(f)] = true
	}
	scan := func(g ast.Goal, from int) {
		ast.Walk(g, func(sub ast.Goal) bool {
			l, ok := sub.(*ast.Lit)
			if !ok {
				return true
			}
			switch l.Op {
			case ast.OpIns:
				v.inserted[litKey(l.Atom)] = true
			case ast.OpDel:
				v.deleted[litKey(l.Atom)] = true
			case ast.OpCall:
				if to, ok := v.nodeIdx[litKey(l.Atom)]; ok && from >= 0 {
					v.edges[from] = append(v.edges[from], to)
				}
			}
			return true
		})
	}
	for _, r := range prog.Rules {
		scan(r.Body, v.nodeIdx[litKey(r.Head)])
	}
	for _, q := range prog.Queries {
		scan(q, -1)
	}
	v.findCycles()
	return v
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

// findCycles runs Tarjan's SCC algorithm over the call graph and marks the
// nodes on a cycle: members of an SCC of size > 1, or self-loops.
func (v *vetter) findCycles() {
	n := len(v.nodes)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	v.sccID = make([]int, n)
	v.inCycle = make(map[int]bool)
	for i := range index {
		index[i] = -1
		v.sccID[i] = -1
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
		for _, w := range v.edges[x] {
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
				v.sccID[w] = nscc
				if w == x {
					break
				}
			}
			nscc++
			if len(comp) > 1 {
				for _, w := range comp {
					v.inCycle[w] = true
				}
			} else {
				for _, w := range v.edges[comp[0]] {
					if w == comp[0] {
						v.inCycle[comp[0]] = true
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

// isRecursiveCall reports whether l, occurring in a rule whose head is
// node from, closes a recursion cycle: the callee is on a cycle in the
// same SCC as the caller. Calls into a recursive predicate from outside
// its SCC are ordinary subroutine calls.
func (v *vetter) isRecursiveCall(from int, l *ast.Lit) bool {
	if l.Op != ast.OpCall || from < 0 {
		return false
	}
	idx, ok := v.nodeIdx[litKey(l.Atom)]
	if !ok || !v.inCycle[idx] {
		return false
	}
	return v.sccID[from] == v.sccID[idx]
}

// reaching returns, per node, whether the node is marked or some chain of
// calls from it reaches a marked node.
func (v *vetter) reaching(marked []bool) []bool {
	reach := append([]bool(nil), marked...)
	for changed := true; changed; {
		changed = false
		for from := range v.nodes {
			if reach[from] {
				continue
			}
			for _, to := range v.edges[from] {
				if reach[to] {
					reach[from] = true
					changed = true
					break
				}
			}
		}
	}
	return reach
}

// ReachesRecursion calls yield once for every derived predicate of prog
// from which some chain of calls reaches a predicate on a call-graph cycle
// (the cyclic predicates themselves included). A goal that calls none of
// them unfolds into strictly lower call-graph heights at every call step,
// so no configuration can recur along one of its derivation paths — the
// engine drops the path-cycle check for such goals.
func ReachesRecursion(prog *ast.Program, yield func(pred string, arity int)) {
	v := newVetter(prog)
	cyclic := make([]bool, len(v.nodes))
	for x := range v.inCycle {
		cyclic[x] = true
	}
	for x, reaches := range v.reaching(cyclic) {
		if reaches {
			yield(v.nodes[x].pred, v.nodes[x].arity)
		}
	}
}
