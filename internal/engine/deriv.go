package engine

import (
	"math"
	"strconv"
	"time"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/term"
)

// deriv holds the mutable state of one search.
type deriv struct {
	e   *Engine
	d   *db.DB
	env *term.Env
	ren *term.Renamer
	// prn is the derivation's pooled Renaming, Reset and reused for every
	// candidate clause instead of allocating a fresh map per attempt. Safe
	// because a renaming is consumed entirely (head and body renamed)
	// before the call step recurses.
	prn *term.Renaming
	err error

	steps    int64
	maxDepth int

	// path holds canonical configuration keys along the current derivation
	// path (for the cycle check); failed memoizes exhaustively explored
	// configurations with no reachable success (tabling). Keys are 128-bit
	// hashes of the canonical serialization: the same collision trade the
	// key already made by embedding the database's 128-bit fingerprint, and
	// it keeps the hot path free of string construction.
	//
	// A key serializes the whole residual, so it is computed only where it
	// can matter. path is nil — no key per step — for a goal that reaches no
	// recursive predicate (Engine.mayRecur): each call step replaces a call
	// by literals of strictly lower call-graph height and every other step
	// consumes a literal, so the residuals along one path strictly decrease
	// in the multiset ordering on heights and none can recur. pathSet is the
	// pooled map path points to when the check is live. The failure table
	// is consulted only while it holds an entry, and a failure's key is
	// computed when the failure is recorded (see explore).
	//
	// path maps each open configuration to the depth of its explore, and
	// loopTop is the smallest such depth a path-cycle prune has hit below
	// the innermost running explore (noLoop: none). A subtree pruned against
	// an ancestor that is still open above it has not been searched
	// exhaustively — the ancestor closes, the same configuration is reached
	// again along another path, and it may succeed — so explore memoizes a
	// failure only when loopTop is not above its own frame.
	path    map[ckey]int
	pathSet map[ckey]int
	failed  map[ckey]bool
	loopTop int

	// keyCalls counts configKey calls and explores the explores of an
	// unfinished configuration; the tests pin the former to zero for
	// non-recursive goals with an empty failure table and bound it by the
	// latter everywhere.
	keyCalls int64
	explores int64

	tableHits int64
	loopHits  int64

	// unifs counts head-unification attempts in call steps; dispatchHits
	// counts call steps whose candidate set came from the clause index.
	// Plain increments on paths already taken — no extra lookups.
	unifs        int64
	dispatchHits int64
	planHits     int64

	// Memo-table state (Options.Memo; all nil/zero otherwise — the
	// disabled hot path pays one nil check in the call step). memoFlight
	// guards against a recursive tabled predicate re-entering its own
	// fill; memoBuf is key-encoding scratch, safe to reuse because a key
	// is fully consumed (lookup or string copy) before any nested search.
	// memoFills[:memoDepth] are the determining-set recorders of the fills
	// in progress, outermost first; memoTee is the read hook they install
	// and memoBase the one it stands in front of (see beginFill).
	// memoStale is the region whose fingerprint moved at the search's last
	// invalidation.
	memoHits    int64
	memoMisses  int64
	memoInvalid int64
	memoStale   *memoDep
	memoFlight  map[string]bool
	memoBuf     []byte
	memoFills   []*memoFill
	memoDepth   int
	memoTee     db.ReadHook
	memoBase    db.ReadHook

	// concTaint marks that the current descent passed through an
	// un-isolated '|' composition: the literal being stepped interleaves
	// with concurrent siblings, so plan-reordered bodies are not
	// semantics-preserving there (a sibling's update between two reads
	// distinguishes the orders). Every explore receives a whole-tree
	// residual (or an iso body) and restarts the descent from its root,
	// so the flag is cleared on explore entry and re-established by each
	// Conc node passed through; iso bodies start clean — they are atomic
	// and safe to plan inside.
	concTaint bool

	trace []TraceEntry

	// Branch-identity state for span recording, active only when
	// opts.Trace is on (recording()); every field below stays nil/zero on
	// the zero-alloc untraced path.
	//
	// The difficulty: ast.NewConc flattens nested compositions and drops
	// finished branches, so positional indices are unstable across
	// transitions. Instead each live branch of a concurrent composition
	// gets a stable int32 id, carried across rebuilds:
	//
	//   - concIDs memoizes the per-position ids of a Conc node (AST nodes
	//     are immutable, so a pointer identifies a composition state);
	//   - when a transition rebuilds a Conc, noteConcRebuild transfers ids
	//     to the successor node: a branch whose residual stays a single
	//     goal keeps its id, a finished branch's id is dropped, and a
	//     branch that expanded into k concurrent sub-branches gets k fresh
	//     ids recorded as children (parentOf) of the expanding branch;
	//   - when a composition collapses to its last surviving branch, the
	//     survivor goal node is remembered in survivors so later steps of
	//     it still attribute to its branch id.
	//
	// branchStack is the id chain of the current descent; descentBase marks
	// where the current explore's descent began (outer frames keep their
	// entries while a continuation explores the next residual). Because
	// every rebuild maps to the whole-tree residual, branchStack[descentBase:]
	// is the full root-to-branch path of the operation being recorded
	// (relative to the iso body root inside an iso macro-step).
	branchStack []int32
	descentBase int
	nextID      int32
	concIDs     map[*ast.Conc][]int32
	survivors   map[ast.Goal]int32
	parentOf    map[int32]int32

	// keyBuf and keyVars are scratch space for configKey, reused across
	// calls (the canonicalization is the search's hottest allocation site).
	keyBuf  []byte
	keyVars map[int64]int

	// argBuf is scratch for resolving update arguments when tracing is off
	// (with tracing on, resolved atoms must be owned by the trace).
	argBuf []term.Term

	// Per-predicate profile scratch, active only when opts.Profile is on
	// (all nil/zero otherwise): profMap accumulates calls/fan-out/time per
	// dispatched predicate; profCur/profLast implement the flat time
	// attribution — the interval between consecutive call steps is charged
	// to the predicate of the earlier step. Folded into the engine's
	// cumulative table by profFlush.
	profMap  map[string]*predAccum
	profCur  string
	profLast time.Time
}

// newDeriv returns a search state for proving goal against d, reusing the
// engine's pooled scratch (environment, renaming, tables, buffers) when one
// is free. The pool is checked out atomically, so a second search on the
// same engine while one is running simply falls back to fresh allocations.
func newDeriv(e *Engine, d *db.DB, goal ast.Goal) *deriv {
	dv := e.pool.Swap(nil)
	if dv != nil {
		e.poolHits.Add(1)
		dv.reset(d)
	} else {
		e.poolMisses.Add(1)
		dv = &deriv{e: e, d: d, env: term.NewEnv(), ren: term.NewRenamer(e.prog.VarHigh + 1_000_000), loopTop: noLoop}
		dv.prn = dv.ren.NewRenaming()
		if e.opts.Table {
			dv.failed = make(map[ckey]bool)
		}
	}
	if e.opts.LoopCheck && e.mayRecur(goal) {
		if dv.pathSet == nil {
			dv.pathSet = make(map[ckey]int)
		}
		dv.path = dv.pathSet
	}
	return dv
}

// reset rewinds a pooled deriv for a new search against d.
func (dv *deriv) reset(d *db.DB) {
	dv.d = d
	dv.err = nil
	dv.steps = 0
	dv.maxDepth = 0
	dv.tableHits = 0
	dv.loopHits = 0
	dv.unifs = 0
	dv.dispatchHits = 0
	dv.planHits = 0
	dv.memoHits = 0
	dv.memoMisses = 0
	dv.memoInvalid = 0
	dv.memoStale = nil
	dv.memoDepth = 0
	dv.memoBase = nil
	if dv.memoFlight != nil {
		clear(dv.memoFlight)
	}
	dv.concTaint = false
	dv.trace = dv.trace[:0]
	dv.branchStack = dv.branchStack[:0]
	dv.descentBase = 0
	dv.nextID = 0
	if dv.concIDs != nil {
		clear(dv.concIDs)
	}
	if dv.survivors != nil {
		clear(dv.survivors)
	}
	if dv.parentOf != nil {
		clear(dv.parentOf)
	}
	if dv.profMap != nil {
		clear(dv.profMap)
	}
	dv.profCur = ""
	dv.profLast = time.Time{}
	dv.env.Reset()
	dv.prn.Reset()
	dv.keyCalls = 0
	dv.explores = 0
	dv.path = nil
	dv.loopTop = noLoop
	if dv.pathSet != nil {
		clear(dv.pathSet)
	}
	if dv.failed != nil {
		clear(dv.failed)
	}
}

// release returns the deriv to the engine's pool. Callers must be done
// with every reference into it (env, trace) before releasing.
func (dv *deriv) release() {
	dv.d = nil
	dv.e.pool.Store(dv)
}

func (dv *deriv) stats() Stats {
	if dv.e.opts.Profile {
		// stats is the single point every Prove-family entry point reads
		// exactly once per search, so it is the profile's flush site.
		dv.profFlush()
	}
	var stale string
	if dv.memoStale != nil {
		stale = dv.memoStale.String()
	}
	return Stats{
		Steps:        dv.steps,
		MaxDepth:     dv.maxDepth,
		TableHits:    dv.tableHits,
		LoopHits:     dv.loopHits,
		TableSize:    len(dv.failed),
		Unifications: dv.unifs,
		DispatchHits: dv.dispatchHits,
		PlanHits:     dv.planHits,

		MemoHits:          dv.memoHits,
		MemoMisses:        dv.memoMisses,
		MemoInvalidations: dv.memoInvalid,
		MemoStale:         stale,
	}
}

// recording reports whether span/branch identity bookkeeping is active.
func (dv *deriv) recording() bool { return dv.e.opts.Trace }

// predAccum is the per-predicate profile cell: call steps, dispatch
// fan-out, and flat-attributed wall time.
type predAccum struct {
	calls  int64
	fanout int64
	dur    time.Duration
}

// noteCall records one call step on pred with the given candidate-rule
// fan-out, charging the interval since the previous call step to the
// previously dispatched predicate. One time.Now per call step; only
// reached when opts.Profile is on.
func (dv *deriv) noteCall(pred string, fanout int) {
	now := time.Now()
	if dv.profMap == nil {
		dv.profMap = make(map[string]*predAccum)
	}
	pa := dv.profMap[pred]
	if pa == nil {
		pa = &predAccum{}
		dv.profMap[pred] = pa
	}
	pa.calls++
	pa.fanout += int64(fanout)
	if dv.profCur != "" {
		if cur := dv.profMap[dv.profCur]; cur != nil {
			cur.dur += now.Sub(dv.profLast)
		}
	}
	dv.profCur = pred
	dv.profLast = now
}

// profFlush charges the tail interval to the last dispatched predicate and
// folds the search-local table into the engine's cumulative profile.
// Idempotent: a second call on the same search finds an empty table.
func (dv *deriv) profFlush() {
	if dv.profCur != "" {
		if cur := dv.profMap[dv.profCur]; cur != nil {
			cur.dur += time.Since(dv.profLast)
		}
		dv.profCur = ""
	}
	if len(dv.profMap) == 0 {
		return
	}
	e := dv.e
	e.profMu.Lock()
	if e.prof == nil {
		e.prof = make(map[string]*predAccum)
	}
	for pred, pa := range dv.profMap {
		cum := e.prof[pred]
		if cum == nil {
			cum = &predAccum{}
			e.prof[pred] = cum
		}
		cum.calls += pa.calls
		cum.fanout += pa.fanout
		cum.dur += pa.dur
	}
	e.profMu.Unlock()
	clear(dv.profMap)
}

// explore runs the whole process tree g to completion, invoking emit at
// every distinct successful execution with the database and environment
// reflecting that execution. It returns false iff emit stopped the search
// (in which case the current state is preserved); otherwise the state is
// fully rolled back and true is returned.
func (dv *deriv) explore(g ast.Goal, depth int, emit func() bool) bool {
	if dv.err != nil {
		return false
	}
	// Fresh descent from the residual's root: any '|' context above a
	// literal will be re-entered (and re-taint) on the way down.
	dv.concTaint = false
	if dv.recording() {
		// Every explore receives a whole-tree residual (or an iso body),
		// so its descent restarts from the root: record branch ids pushed
		// below this point only. Outer frames' entries stay on the stack
		// and are restored when this explore returns.
		saved := dv.descentBase
		dv.descentBase = len(dv.branchStack)
		defer func() { dv.descentBase = saved }()
	}
	if depth > dv.maxDepth {
		dv.maxDepth = depth
	}
	if depth > dv.e.opts.MaxDepth {
		dv.err = ErrDepth
		return false
	}
	if _, done := g.(ast.True); done {
		return emit()
	}

	// At most one key per explore: at entry when the path check is live or
	// the failure table has something to hit, otherwise only if this
	// configuration turns out to fail (below).
	dv.explores++
	var key ckey
	keyed := dv.path != nil || len(dv.failed) > 0
	if keyed {
		key = dv.configKey(g)
		if dv.failed[key] {
			dv.tableHits++
			return true
		}
		if dv.path != nil {
			if at, open := dv.path[key]; open {
				dv.loopHits++
				if at < dv.loopTop {
					dv.loopTop = at
				}
				return true
			}
			dv.path[key] = depth
		}
	}

	emitted := false
	wrapped := func() bool {
		emitted = true
		// This configuration's completion subproblem is RESOLVED at the
		// moment the continuation runs: remove its key from the path so a
		// later, independent occurrence of the same configuration (e.g.
		// the body of a second identical iso block) is not mistaken for a
		// cycle. Re-add it afterwards — backtracking resumes underneath.
		if dv.path != nil {
			delete(dv.path, key)
		}
		r := emit()
		if dv.path != nil {
			dv.path[key] = depth
		}
		return r
	}
	outerTop := dv.loopTop
	dv.loopTop = noLoop
	cont := dv.step(g, func(res ast.Goal) ast.Goal { return res }, depth, wrapped)
	if dv.path != nil {
		delete(dv.path, key)
	}
	// top is the shallowest open configuration a path-cycle prune below
	// this frame hit; the enclosing frame inherits the minimum.
	top := dv.loopTop
	if outerTop < top {
		dv.loopTop = outerTop
	}
	// Memoize failure only for subtrees explored exhaustively: no success
	// below, no error, and no path-cycle prune against a configuration still
	// open above this frame. cont means the environment and the database are
	// rolled back to their state at entry, so a key computed here is the key
	// of the entry configuration.
	if cont && !emitted && dv.failed != nil && dv.err == nil && top >= depth {
		failedKey := key
		if !keyed {
			failedKey = dv.configKey(g)
		}
		dv.failed[failedKey] = true
	}
	return cont
}

// step enumerates the single-step successors of subgoal g. rebuild maps the
// residual of g to the whole-tree residual; k explores each successor.
// Like explore, step returns false iff the search was cut, preserving state.
func (dv *deriv) step(g ast.Goal, rebuild func(ast.Goal) ast.Goal, depth int, emit func() bool) bool {
	if dv.err != nil {
		return false
	}
	if dv.recording() && dv.survivors != nil {
		if id, ok := dv.survivors[g]; ok {
			// g is the last surviving branch of a collapsed concurrent
			// composition: its operations still belong to branch id. Keep
			// the chain alive by tagging whatever residual it rebuilds to.
			inner := rebuild
			rebuild = func(res ast.Goal) ast.Goal {
				dv.noteSurvivor(res, id)
				return inner(res)
			}
			// Both a tagged Seq and its (also tagged) elements pass through
			// here when the Seq is stepped in place; push the id once.
			// Only entries above the current descent base count — an equal
			// id below it belongs to an enclosing explore and is invisible
			// to this descent's path extraction.
			if n := len(dv.branchStack); n <= dv.descentBase || dv.branchStack[n-1] != id {
				dv.branchStack = append(dv.branchStack, id)
				defer func() { dv.branchStack = dv.branchStack[:len(dv.branchStack)-1] }()
			}
		}
	}
	switch g := g.(type) {
	case ast.True:
		return true // no transitions out of a finished component

	case *ast.Lit:
		return dv.stepLit(g, rebuild, depth, emit)

	case *ast.Empty:
		if !dv.budget() {
			return false
		}
		if !dv.d.IsEmpty(g.Pred) {
			return true
		}
		dv.pushTrace(TraceEntry{Op: TraceEmpty, Atom: term.Atom{Pred: g.Pred}})
		cont := dv.explore(rebuild(ast.True{}), depth+1, emit)
		dv.popTrace(cont)
		return cont

	case *ast.Builtin:
		if !dv.budget() {
			return false
		}
		envMark := dv.env.Mark()
		ok, err := ast.EvalBuiltin(g, dv.env)
		if err != nil {
			dv.err = &RuntimeError{Goal: g.String(), Msg: err.Error()}
			return false
		}
		if !ok {
			dv.env.Undo(envMark)
			return true
		}
		dv.pushTrace(TraceEntry{Op: TraceBuiltin, Atom: dv.traceAtom(term.Atom{Pred: g.Name, Args: g.Args})})
		cont := dv.explore(rebuild(ast.True{}), depth+1, emit)
		dv.popTrace(cont)
		if cont {
			dv.env.Undo(envMark)
		}
		return cont

	case *ast.Seq:
		rest := g.Goals[1:]
		return dv.step(g.Goals[0], func(res ast.Goal) ast.Goal {
			return rebuild(ast.SeqResidual(res, rest))
		}, depth, emit)

	case *ast.Conc:
		ids := dv.concBranchIDs(g) // nil when not recording
		for i := range g.Goals {
			i := i
			if ids != nil {
				dv.branchStack = append(dv.branchStack, ids[i])
			}
			// Children of an un-isolated '|' interleave with their
			// siblings: planned dispatch is off below this point (the
			// next explore starts a fresh descent and clears the taint).
			dv.concTaint = true
			cont := dv.step(g.Goals[i], func(res ast.Goal) ast.Goal {
				ng := ast.ConcResidual(g.Goals, i, res)
				if ids != nil {
					dv.noteConcRebuild(g, ids, i, res, ng)
				}
				return rebuild(ng)
			}, depth, emit)
			if ids != nil {
				dv.branchStack = dv.branchStack[:len(dv.branchStack)-1]
			}
			if !cont {
				return false
			}
		}
		return true

	case *ast.Iso:
		// Isolation: run the body to completion as one macro-step. Every
		// complete execution of the body is one alternative for the step.
		if !dv.budget() {
			return false
		}
		dv.pushTrace(TraceEntry{Op: TraceIsoBegin})
		cont := dv.explore(g.Body, depth+1, func() bool {
			dv.pushTrace(TraceEntry{Op: TraceIsoEnd})
			r := dv.explore(rebuild(ast.True{}), depth+1, emit)
			dv.popTrace(r)
			return r
		})
		dv.popTrace(cont)
		return cont

	default:
		dv.err = &RuntimeError{Goal: g.String(), Msg: "unknown goal node"}
		return false
	}
}

// stepLit handles the atom-bearing goals: queries, updates, and calls.
func (dv *deriv) stepLit(g *ast.Lit, rebuild func(ast.Goal) ast.Goal, depth int, emit func() bool) bool {
	switch g.Op {
	case ast.OpQuery:
		if !dv.budget() {
			return false
		}
		return dv.d.Scan(g.Atom.Pred, g.Atom.Args, dv.env, func() bool {
			dv.pushTrace(TraceEntry{Op: TraceQuery, Atom: dv.traceAtom(g.Atom)})
			cont := dv.explore(rebuild(ast.True{}), depth+1, emit)
			dv.popTrace(cont)
			return cont
		})

	case ast.OpIns, ast.OpDel:
		if !dv.budget() {
			return false
		}
		// Resolve the update's arguments. With tracing off they land in a
		// reused scratch slice (the database copies them on store); with
		// tracing on the trace entry must own them, so allocate.
		var args []term.Term
		if dv.e.opts.Trace {
			args = dv.env.ResolveArgs(g.Atom.Args)
		} else {
			dv.argBuf = dv.argBuf[:0]
			for _, t := range g.Atom.Args {
				dv.argBuf = append(dv.argBuf, dv.env.Walk(t))
			}
			args = dv.argBuf
		}
		for _, t := range args {
			if t.IsVar() {
				dv.err = &RuntimeError{Goal: g.String(), Msg: "update with unbound variable (unsafe program)"}
				return false
			}
		}
		dbMark := dv.d.Mark()
		var op TraceOp
		if g.Op == ast.OpIns {
			dv.d.Insert(g.Atom.Pred, args)
			op = TraceIns
		} else {
			dv.d.Delete(g.Atom.Pred, args)
			op = TraceDel
		}
		dv.pushTrace(TraceEntry{Op: op, Atom: term.Atom{Pred: g.Atom.Pred, Args: args}})
		if w := dv.e.opts.Watch; w != nil {
			if werr := w(dv.d); werr != nil {
				dv.err = &WatchViolation{Cause: werr, Trace: append([]TraceEntry(nil), dv.trace...)}
				return false
			}
		}
		cont := dv.explore(rebuild(ast.True{}), depth+1, emit)
		dv.popTrace(cont)
		if cont {
			dv.d.Undo(dbMark)
		}
		return cont

	case ast.OpCall:
		// Tabled dispatch: a call to a memoized predicate replays the
		// cached answer multiset. Bypassed under un-isolated '|' (a
		// sibling's update between replayed answers would be invisible); a
		// re-entrant same-key call mid-fill falls through to the ordinary
		// path below.
		if dv.e.memo != nil && !dv.concTaint {
			if handled, cont := dv.memoStep(g, rebuild, depth, emit); handled {
				return cont
			}
		}
		// First-argument dispatch: only rules whose head can unify with the
		// call's (walked) first argument are attempted, in source order.
		dv.dispatchHits++
		var rules []ast.Rule
		planned := false
		if dv.e.plan != nil && !dv.concTaint {
			// Planned dispatch: an exact hit on the call's runtime
			// adornment serves the reordered bodies. Misses (and any
			// call under an un-isolated '|') keep textual order.
			if pr, ok := dv.e.plan.plannedRules(g.Atom.Pred, g.Atom.Args, dv.env); ok {
				rules = pr
				planned = true
				dv.planHits++
			}
		}
		if !planned {
			rules = dv.e.idx.candidates(g.Atom.Pred, g.Atom.Args, dv.env)
		}
		if dv.e.opts.Profile {
			dv.noteCall(g.Atom.Pred, len(rules))
		}
		if len(rules) == 0 {
			// Unknown predicate: no rules and not a base relation — treat as
			// a query against an empty relation (fails), matching Datalog
			// convention.
			return true
		}
		for _, r := range rules {
			if !dv.budget() {
				return false
			}
			rn := dv.prn
			rn.Reset()
			head := rn.Atom(r.Head)
			envMark := dv.env.Mark()
			dv.unifs++
			if !dv.env.UnifyAtoms(head, g.Atom) {
				dv.env.Undo(envMark)
				continue
			}
			body := ast.Rename(r.Body, rn)
			dv.pushTrace(TraceEntry{Op: TraceCall, Atom: dv.traceAtom(g.Atom)})
			cont := dv.explore(rebuild(body), depth+1, emit)
			dv.popTrace(cont)
			if !cont {
				return false
			}
			dv.env.Undo(envMark)
		}
		return true
	}
	dv.err = &RuntimeError{Goal: g.String(), Msg: "unexpected literal op"}
	return false
}

// budget consumes one step from the budget; false means the search must
// abort (dv.err set).
func (dv *deriv) budget() bool {
	dv.steps++
	if dv.steps > dv.e.opts.MaxSteps {
		dv.err = ErrBudget
		return false
	}
	return true
}

// traceAtom resolves a under the current bindings for a trace entry; with
// tracing off it resolves (and allocates) nothing, and pushTrace drops the
// entry.
func (dv *deriv) traceAtom(a term.Atom) term.Atom {
	if !dv.e.opts.Trace {
		return term.Atom{}
	}
	return dv.env.ResolveAtom(a)
}

func (dv *deriv) pushTrace(t TraceEntry) {
	if dv.e.opts.Trace {
		if n := len(dv.branchStack) - dv.descentBase; n > 0 {
			t.Path = append([]int32(nil), dv.branchStack[dv.descentBase:]...)
		}
		t.Steps = dv.steps
		dv.trace = append(dv.trace, t)
	}
}

// popTrace removes the last trace entry when the branch is being undone
// (cont == true means we are backtracking past it).
func (dv *deriv) popTrace(cont bool) {
	if dv.e.opts.Trace && cont {
		dv.trace = dv.trace[:len(dv.trace)-1]
	}
}

// concBranchIDs returns the stable branch ids for g's positions, assigning
// fresh ids on first visit. Returns nil when span recording is off.
func (dv *deriv) concBranchIDs(g *ast.Conc) []int32 {
	if !dv.recording() {
		return nil
	}
	if dv.concIDs == nil {
		dv.concIDs = make(map[*ast.Conc][]int32)
		dv.survivors = make(map[ast.Goal]int32)
		dv.parentOf = make(map[int32]int32)
	}
	if ids, ok := dv.concIDs[g]; ok {
		return ids
	}
	ids := make([]int32, len(g.Goals))
	for i := range ids {
		ids[i] = dv.newBranchID()
	}
	dv.concIDs[g] = ids
	return ids
}

func (dv *deriv) newBranchID() int32 {
	dv.nextID++
	return dv.nextID
}

// noteSurvivor tags res (the residual a surviving branch stepped to) with
// the branch's id, unless the branch just finished. A Seq residual's
// elements are tagged as well: an enclosing sequential rebuild flattens
// them into the parent sequence (ast.NewSeq), dissolving the Seq node
// itself, and the chain must survive that.
func (dv *deriv) noteSurvivor(res ast.Goal, id int32) {
	if _, done := res.(ast.True); done {
		return
	}
	dv.survivors[res] = id
	if seq, ok := res.(*ast.Seq); ok {
		for _, sub := range seq.Goals {
			if _, done := sub.(ast.True); !done {
				dv.survivors[sub] = id
			}
		}
	}
}

// noteConcRebuild transfers branch identity from Conc node g (whose
// position i stepped to residual res) to the rebuilt composition ng.
// ast.NewConc may have dropped a finished branch, flattened an expansion
// of branch i into several sub-branches, or collapsed the whole
// composition to its last surviving goal.
func (dv *deriv) noteConcRebuild(g *ast.Conc, ids []int32, i int, res, ng ast.Goal) {
	switch ng := ng.(type) {
	case *ast.Conc:
		if _, ok := dv.concIDs[ng]; ok {
			return // revisited rebuild of a node already mapped
		}
		// res contributed k goals at position i; siblings are carried over
		// verbatim around it.
		k := len(ng.Goals) - (len(g.Goals) - 1)
		nids := make([]int32, 0, len(ng.Goals))
		nids = append(nids, ids[:i]...)
		switch {
		case k == 1:
			nids = append(nids, ids[i]) // branch continues under its id
		case k > 1:
			// Branch i expanded into k concurrent sub-branches (a call
			// whose body is a concurrent composition, flattened into the
			// parent): fresh ids, nested under the expanding branch.
			for j := 0; j < k; j++ {
				id := dv.newBranchID()
				dv.parentOf[id] = ids[i]
				nids = append(nids, id)
			}
		}
		// k == 0: branch finished; its id is dropped.
		nids = append(nids, ids[i+1:]...)
		dv.concIDs[ng] = nids
	case ast.True:
		// Whole composition finished; nothing left to attribute.
	default:
		// Collapsed to a single goal: either the untouched last sibling
		// (res finished) or, defensively, the stepped branch's residual.
		for j, sub := range g.Goals {
			if j != i && sub == ng {
				dv.noteSurvivor(ng, ids[j])
				return
			}
		}
		dv.noteSurvivor(ng, ids[i])
	}
}

// noLoop is deriv.loopTop's "no path-cycle prune" value: below no depth.
const noLoop = math.MaxInt

// ckey is a 128-bit configuration key: two independent FNV-1a streams over
// the canonical serialization of (goal, database fingerprint).
type ckey [2]uint64

// configKey canonicalizes the configuration (g under the current env, plus
// the database fingerprint) and hashes it. Free variables are numbered by
// first occurrence, so α-equivalent configurations share keys; branches of
// a concurrent composition are sorted, exploiting commutativity of | to
// merge symmetric states. The scratch buffer and numbering map are reused
// across calls, and the key is a fixed-size hash rather than a retained
// string — the canonicalization used to be the search's hottest allocation
// site and now allocates nothing in steady state.
func (dv *deriv) configKey(g ast.Goal) ckey {
	dv.keyCalls++
	buf := dv.keyBuf[:0]
	if dv.keyVars == nil {
		dv.keyVars = make(map[int64]int, 16)
	} else {
		clear(dv.keyVars)
	}
	buf = dv.writeCanon(buf, g, dv.keyVars)
	dv.keyBuf = buf
	// Two streams with distinct multipliers so they stay independent.
	const primeLo, primeHi = 1099511628211, 0xff51afd7ed558ccd
	lo := uint64(14695981039346656037)
	hi := uint64(0x9e3779b97f4a7c15)
	for _, b := range buf {
		lo = (lo ^ uint64(b)) * primeLo
		hi = (hi ^ uint64(b)) * primeHi
	}
	fp := dv.d.Fingerprint()
	lo = (lo ^ fp[0]) * primeLo
	hi = (hi ^ fp[1]) * primeHi
	return ckey{lo, hi}
}

func (dv *deriv) writeCanon(buf []byte, g ast.Goal, vars map[int64]int) []byte {
	switch g := g.(type) {
	case ast.True:
		buf = append(buf, 'T')
	case *ast.Lit:
		switch g.Op {
		case ast.OpQuery:
			buf = append(buf, 'q', ':')
		case ast.OpIns:
			buf = append(buf, 'i', ':')
		case ast.OpDel:
			buf = append(buf, 'd', ':')
		default:
			buf = append(buf, 'c', ':')
		}
		buf = dv.writeCanonAtom(buf, g.Atom, vars)
	case *ast.Empty:
		buf = append(buf, 'e', ':')
		buf = append(buf, g.Pred...)
	case *ast.Builtin:
		buf = append(buf, 'b', ':')
		buf = dv.writeCanonAtom(buf, term.Atom{Pred: g.Name, Args: g.Args}, vars)
	case *ast.Seq:
		buf = append(buf, 'S', '(')
		for i, sub := range g.Goals {
			if i > 0 {
				buf = append(buf, ';')
			}
			buf = dv.writeCanon(buf, sub, vars)
		}
		buf = append(buf, ')')
	case *ast.Conc:
		// Sort branch serializations: | is commutative. Branch-local
		// variable numbering would break cross-branch sharing, so branches
		// are serialized with the shared numbering first, then sorted.
		parts := make([]string, len(g.Goals))
		for i, sub := range g.Goals {
			parts[i] = string(dv.writeCanon(nil, sub, vars))
		}
		sortStrings(parts)
		buf = append(buf, 'C', '(')
		for i, p := range parts {
			if i > 0 {
				buf = append(buf, '&')
			}
			buf = append(buf, p...)
		}
		buf = append(buf, ')')
	case *ast.Iso:
		buf = append(buf, 'I', '(')
		buf = dv.writeCanon(buf, g.Body, vars)
		buf = append(buf, ')')
	}
	return buf
}

func (dv *deriv) writeCanonAtom(buf []byte, a term.Atom, vars map[int64]int) []byte {
	buf = append(buf, a.Pred...)
	buf = append(buf, '(')
	for i, t := range a.Args {
		if i > 0 {
			buf = append(buf, ',')
		}
		w := dv.env.Walk(t)
		if w.IsVar() {
			n, ok := vars[w.VarID()]
			if !ok {
				n = len(vars)
				vars[w.VarID()] = n
			}
			buf = append(buf, '_')
			buf = strconv.AppendInt(buf, int64(n), 10)
		} else {
			switch w.Kind() {
			case term.Sym:
				// Length-prefixed: API-constructed symbol names may contain
				// arbitrary bytes, and must never collide with key
				// structure characters.
				name := w.SymName()
				buf = append(buf, 's')
				buf = strconv.AppendInt(buf, int64(len(name)), 10)
				buf = append(buf, ':')
				buf = append(buf, name...)
			case term.Int:
				buf = append(buf, 'n')
				buf = strconv.AppendInt(buf, w.IntVal(), 10)
			case term.Str:
				buf = append(buf, 'x')
				buf = strconv.AppendQuote(buf, w.StrVal())
			default:
				buf = append(buf, w.String()...)
			}
		}
	}
	buf = append(buf, ')')
	return buf
}

func sortStrings(ss []string) {
	// Insertion sort: branch counts are small, avoids pulling in sort for a
	// hot path with tiny inputs.
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}
