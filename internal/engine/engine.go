// Package engine implements the proof-theoretic interpreter of Transaction
// Datalog: executional entailment P, D0 ⇒ Dn ⊨ φ, decided by depth-first
// search over the small-step transition system of the paper's Appendix C.
//
// A configuration is a pair (G, D): a residual process tree G and a current
// database D. Transitions:
//
//   - a query literal p(t̄) steps by unifying with a stored tuple (one branch
//     per tuple);
//   - ins.p(c̄) / del.p(c̄) step by updating D (they must be ground when they
//     execute — the run-time face of the paper's safety condition);
//   - empty.p steps iff relation p is empty;
//   - a call of a derived predicate steps by replacing itself with a freshly
//     renamed rule body whose head unifies (one branch per rule);
//   - in a sequential composition only the leftmost component may step;
//   - in a concurrent composition any component may step — this interleaving
//     is what lets concurrent processes communicate through the database;
//   - an isolated goal iso(G) executes G to completion as one macro-step, so
//     siblings never observe its intermediate states (the ⊙ modality).
//
// φ succeeds when the process tree is fully consumed. The engine explores
// branches depth-first with O(1) snapshot / O(changes) rollback on both the
// database and the binding environment, and optionally prunes the search
// with a path-cycle check and a failed-configuration table (tabling). Both
// prunings are sound and preserve the answer set; see the package's tests.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/term"
)

// Options configure an Engine.
type Options struct {
	// MaxSteps bounds the total number of transition attempts across the
	// whole search (0 means DefaultMaxSteps). Exceeding it aborts with
	// ErrBudget.
	MaxSteps int64
	// MaxDepth bounds the length of a single derivation path (0 means
	// DefaultMaxDepth). Exceeding it aborts with ErrDepth.
	MaxDepth int
	// LoopCheck prunes branches that revisit a configuration already on the
	// current derivation path. Sound and answer-preserving; required for
	// termination on programs whose recursion does not change the database.
	// A goal that calls no predicate reaching a recursive one cannot
	// revisit a configuration, so for it the check costs nothing.
	LoopCheck bool
	// Table memoizes configurations from which exhaustive search found no
	// success, pruning re-exploration across branches. Sound; this is the
	// "tabling" the paper points to for restricted fragments (ablation A1).
	Table bool
	// Trace records the witness execution path (elementary operations in
	// order) for a successful proof, and builds the structured span tree
	// (Result.Spans) attributing operations to concurrent branches and
	// iso sub-transactions.
	Trace bool
	// SpanSink, when non-nil (and Trace is on), receives the span tree of
	// every successful proof. With SpanSink nil and Trace off the engine
	// does no span work at all — the zero-alloc hot path is unchanged.
	SpanSink obs.Sink
	// Watch, when non-nil, is invoked after every database-changing step,
	// on every explored execution path. Returning a non-nil error aborts
	// the search with a *WatchViolation that carries the trace of the
	// offending path (enable Trace to populate it). The verification
	// package uses this to check invariants over ALL reachable states.
	Watch func(d *db.DB) error
	// Vet runs the tdvet static analyzer (internal/analysis) over the
	// program once, at construction time. Error-severity diagnostics
	// (unsafe updates, recursion through '|', updates on derived
	// predicates) make every Prove-family call fail immediately with the
	// *analysis.VetError; the full report stays available through
	// Diagnostics either way. The analysis runs only in New — nothing is
	// added to the prove hot path.
	Vet bool
	// Plan runs the tdplan static planner (internal/analysis) over
	// the program once, at construction time, and compiles its reordered
	// rule variants into a per-adornment dispatch table. Call steps whose
	// runtime binding pattern matches a planned variant — and that are not
	// interleaving with un-isolated '|' siblings — evaluate the reordered
	// bodies; everything else keeps textual order. The answer set is
	// unchanged (plan_test.go and the corpus differential test check
	// this); only the search order within read-only conjunctions moves.
	// Leaving Plan off (the library default; the server always sets it)
	// reproduces the unplanned engine exactly.
	Plan bool
	// Memo, when non-nil, enables memo tables for tabling-eligible derived
	// predicates (see memo.go): a repeat call with the same binding pattern
	// replays the cached answer multiset instead of re-running proof
	// search, as long as nothing the cached proof search read has changed. The answer
	// multiset and success/failure behavior are identical either way (the
	// corpus differential test checks this); with Memo nil the prove hot
	// path pays a single nil check.
	Memo *MemoOptions
	// Profile accumulates per-predicate prover cost: call-step count,
	// clause-dispatch fan-out, and flat time attribution (each interval
	// between consecutive call steps is charged to the most recently
	// dispatched predicate — the CPS search makes inclusive per-call timing
	// meaningless, since a continuation carries the whole residual). Read
	// the cumulative table with ProfileSnapshot. Costs one time.Now per
	// call step when on; with Profile off the hot path is untouched.
	Profile bool
}

// Default limits.
const (
	DefaultMaxSteps = int64(50_000_000)
	DefaultMaxDepth = 400_000
)

// Sentinel errors. Budget and depth exhaustion are errors, not failures:
// the search was truncated, so "no" cannot be trusted.
var (
	ErrBudget = errors.New("engine: step budget exhausted")
	ErrDepth  = errors.New("engine: derivation depth limit exceeded")
)

// RuntimeError reports an execution fault (unbound update, bad builtin
// call). These abort the search: they indicate program bugs that the static
// safety check (td.CheckSafety, tdvet's safety lint) approximates.
type RuntimeError struct {
	Goal string
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("engine: runtime error at %s: %s", e.Goal, e.Msg)
}

// WatchViolation is returned when Options.Watch rejected a reachable
// database state. Trace holds the execution prefix that produced the state
// (populated when Options.Trace is on).
type WatchViolation struct {
	Cause error
	Trace []TraceEntry
}

func (w *WatchViolation) Error() string {
	return fmt.Sprintf("engine: watch violation: %v", w.Cause)
}

// Unwrap exposes the cause for errors.Is/As.
func (w *WatchViolation) Unwrap() error { return w.Cause }

// TraceOp is the kind of an executed elementary operation.
type TraceOp uint8

// Trace operation kinds.
const (
	TraceQuery TraceOp = iota
	TraceIns
	TraceDel
	TraceEmpty
	TraceCall
	TraceBuiltin
	// TraceIsoBegin / TraceIsoEnd bracket the witness execution of an
	// iso(...) body; only matched pairs whose body succeeded survive on the
	// witness path (backtracking pops unmatched markers like any entry).
	TraceIsoBegin
	TraceIsoEnd
)

func (op TraceOp) String() string {
	switch op {
	case TraceQuery:
		return "query"
	case TraceIns:
		return "ins"
	case TraceDel:
		return "del"
	case TraceEmpty:
		return "empty"
	case TraceCall:
		return "call"
	case TraceBuiltin:
		return "builtin"
	case TraceIsoBegin:
		return "iso"
	case TraceIsoEnd:
		return "iso-end"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// TraceEntry is one executed operation on the witness path.
type TraceEntry struct {
	Op   TraceOp
	Atom term.Atom // resolved at execution time
	// Path identifies the concurrent branch the operation executed in: the
	// chain of stable branch ids from the process-tree root down to the
	// branch, empty for operations outside any concurrent composition.
	// Inside an iso body the path is relative to the body's root.
	Path []int32
	// Steps is the engine's step counter at the time the entry was pushed
	// (used to attribute step counts to iso sub-transactions).
	Steps int64
	// Memo annotates a TraceCall entry served by the memo table (MemoHit:
	// answers replayed from a prior fill; MemoMiss: this call filled the
	// table first). MemoNone for untabled calls.
	Memo uint8
}

// Memo annotation values on a TraceCall entry.
const (
	MemoNone uint8 = iota
	MemoHit
	MemoMiss
)

func (t TraceEntry) String() string {
	switch t.Op {
	case TraceIns:
		return "ins." + t.Atom.String()
	case TraceDel:
		return "del." + t.Atom.String()
	case TraceEmpty:
		return "empty." + t.Atom.Pred
	case TraceIsoBegin:
		return "iso{"
	case TraceIsoEnd:
		return "}"
	default:
		return t.Atom.String()
	}
}

// Stats reports search effort.
type Stats struct {
	Steps        int64 // transition attempts
	MaxDepth     int   // deepest derivation path reached
	TableHits    int64 // prunings due to the failure table
	LoopHits     int64 // prunings due to the path-cycle check
	TableSize    int   // entries in the failure table at the end
	Successes    int64 // number of successful executions emitted
	Unifications int64 // head-unification attempts across call steps
	DispatchHits int64 // call steps served by the first-argument clause index
	PlanHits     int64 // call steps served by a plan-reordered rule variant
	Truncated    bool  // true when budget/depth aborted the search

	// Memo-table effort (Options.Memo; all zero with tabling off).
	MemoHits          int64 // call steps replayed from a valid memo entry
	MemoMisses        int64 // call steps that filled (or re-filled) an entry
	MemoInvalidations int64 // lookups that found an entry one of whose regions had moved
	// MemoStale names the region behind the last of those invalidations:
	// "reading/2[r17]" (a tuple or first-argument bucket), "reading/2" (the
	// relation), "reading" (the predicate at every arity). Empty without one.
	MemoStale string
}

// Result is the outcome of Prove.
type Result struct {
	// Success reports whether some execution of the goal commits.
	Success bool
	// Bindings maps the goal's named free variables to their witness values
	// (only for successful proofs; variables left unbound are omitted).
	Bindings map[string]term.Term
	// Trace is the witness execution path (only when Options.Trace).
	Trace []TraceEntry
	// Spans is the structured span tree of the witness execution (only for
	// successful proofs when Options.Trace): one node per iso sub-transaction
	// and concurrent branch, with leaf spans for elementary operations.
	Spans *obs.Span
	// Stats reports search effort.
	Stats Stats
}

// Solution is one element of an answer enumeration.
type Solution struct {
	Bindings map[string]term.Term
	// Final is the database state at the end of this execution.
	Final *db.DB
}

// Engine executes TD goals against databases under a fixed program.
// An Engine is not safe for concurrent use; create one per goroutine.
type Engine struct {
	prog *ast.Program
	opts Options
	// idx is the first-argument clause dispatch table, compiled once from
	// the program so every call step pays a map lookup instead of a linear
	// scan over non-matching rules.
	idx *clauseIndex
	// recursive holds the derived predicates from which some call chain
	// reaches a call-graph cycle. Goals that call none of them cannot
	// revisit a configuration, and run without the path-cycle check.
	recursive map[enginePredArity]bool
	// pool holds one reusable search state (environment, renaming, tables,
	// scratch buffers), checked out atomically so repeated Prove calls on a
	// long-lived engine — the server's steady state — do not rebuild them.
	pool atomic.Pointer[deriv]
	// poolHits / poolMisses count searches that reused the pooled state vs
	// built a fresh one (an observability instrument for the PR 2 pooling).
	poolHits   atomic.Int64
	poolMisses atomic.Int64
	// plan is the per-adornment planned dispatch table (Options.Plan),
	// nil when planning is off or the planner reordered nothing; planRep
	// is the full tdplan report for PlanReport.
	plan    *planIndex
	planRep *analysis.PlanReport
	// memo is the compiled tabling configuration (Options.Memo): the
	// selected predicates and the (possibly shared) answer store. nil when tabling is off or nothing was selected.
	memo *engineMemo
	// vet holds the load-time analysis report when Options.Vet is on;
	// vetErr is its error form when the report carries error-severity
	// diagnostics, and fails every Prove-family call.
	vet    *analysis.Report
	vetErr error
	// prof is the cumulative per-predicate profile (Options.Profile),
	// folded in from each search's deriv-local table under profMu.
	profMu sync.Mutex
	prof   map[string]*predAccum
}

// PredProfile is the cumulative prover cost attributed to one derived
// predicate (Options.Profile): this table is what a tabling pass would
// consult to decide which predicates are worth memoizing.
type PredProfile struct {
	Calls  int64 `json:"calls"`   // call steps dispatched
	Fanout int64 `json:"fanout"`  // candidate rules attempted across those calls
	TimeUs int64 `json:"time_us"` // flat self-time between dispatches, µs
}

// ProfileSnapshot returns a copy of the cumulative per-predicate profile,
// or nil when profiling is off or nothing has been dispatched yet.
func (e *Engine) ProfileSnapshot() map[string]PredProfile {
	e.profMu.Lock()
	defer e.profMu.Unlock()
	if len(e.prof) == 0 {
		return nil
	}
	out := make(map[string]PredProfile, len(e.prof))
	for pred, pa := range e.prof {
		out[pred] = PredProfile{Calls: pa.calls, Fanout: pa.fanout, TimeUs: pa.dur.Microseconds()}
	}
	return out
}

// PoolStats reports how many searches reused the pooled scratch state vs
// allocated fresh state.
func (e *Engine) PoolStats() (hits, misses int64) {
	return e.poolHits.Load(), e.poolMisses.Load()
}

// New returns an engine for prog. Zero-valued fields of opts take defaults:
// LoopCheck and Table default to ON — pass explicit false to disable them
// via the With* helpers below or by constructing Options fully.
func New(prog *ast.Program, opts Options) *Engine {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = DefaultMaxSteps
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = DefaultMaxDepth
	}
	e := &Engine{prog: prog, opts: opts, idx: compileClauses(prog)}
	// One analysis of the program feeds every load-time consumer.
	facts := analysis.Analyze(prog)
	if opts.LoopCheck {
		facts.ReachesRecursion(func(pred string, arity int) {
			if e.recursive == nil {
				e.recursive = make(map[enginePredArity]bool)
			}
			e.recursive[enginePredArity{pred: pred, arity: arity}] = true
		})
	}
	if opts.Plan || opts.Memo != nil {
		rep := facts.Plan()
		if opts.Plan {
			e.planRep = rep
			e.plan = compilePlan(rep)
		}
		if opts.Memo != nil {
			// Tabling gates on the plan report's certificates and support
			// sets whether or not Options.Plan installs the reorders
			// (PlanReport() keeps reflecting Options.Plan).
			e.memo = newEngineMemo(prog, rep, opts.Memo)
		}
	}
	if opts.Vet {
		e.vet = facts.Vet()
		e.vetErr = e.vet.Err()
	}
	return e
}

// DefaultOptions are the options used by convenience constructors: pruning
// on, tracing off.
func DefaultOptions() Options {
	return Options{LoopCheck: true, Table: true}
}

// NewDefault returns an engine with DefaultOptions.
func NewDefault(prog *ast.Program) *Engine { return New(prog, DefaultOptions()) }

// Program returns the engine's program.
func (e *Engine) Program() *ast.Program { return e.prog }

// VetReport returns the load-time analysis report, or nil when the engine
// was built without Options.Vet.
func (e *Engine) VetReport() *analysis.Report { return e.vet }

// PlanReport returns the load-time tdplan report, or nil when the engine
// was built without Options.Plan.
func (e *Engine) PlanReport() *analysis.PlanReport { return e.planRep }

// Diagnostics returns the load-time analysis diagnostics, or nil when the
// engine was built without Options.Vet.
func (e *Engine) Diagnostics() []analysis.Diagnostic {
	if e.vet == nil {
		return nil
	}
	return e.vet.Diags
}

// mayRecur reports whether g calls a predicate that reaches a recursive
// one, i.e. whether a configuration could recur on a derivation path of g.
func (e *Engine) mayRecur(g ast.Goal) bool {
	if len(e.recursive) == 0 {
		return false
	}
	found := false
	ast.Walk(g, func(sub ast.Goal) bool {
		if l, ok := sub.(*ast.Lit); ok && l.Op == ast.OpCall && e.recursive[enginePredArity{pred: l.Atom.Pred, arity: len(l.Atom.Args)}] {
			found = true
		}
		return !found
	})
	return found
}

// search is the one way into proof search: every exported entry point is a
// thin shell over it. It refuses a vet-rejected program, resolves goal
// against the program, checks out the pooled search state, and explores
// from d, failing closed — d rolled back to its state at entry, the error
// returned and Stats.Truncated set — when the step budget or the depth
// limit cuts the search short.
//
// each == nil asks for a witness: the search stops at the first successful
// execution and leaves that execution's changes on d's undo trail, above
// the caller's mark, with the bindings, trace and span tree in the Result.
// Otherwise each receives the answer bindings of every successful
// execution, with d reflecting it, until each returns false or max
// executions were seen (max <= 0 means all), and d is rolled back.
func (e *Engine) search(goal ast.Goal, d *db.DB, max int, each func(map[string]term.Term) bool) (*Result, error) {
	if e.vetErr != nil {
		return nil, e.vetErr
	}
	goal, err := e.prog.ResolveGoal(goal)
	if err != nil {
		return nil, err
	}
	dv := newDeriv(e, d, goal)
	defer dv.release()
	dbMark := d.Mark()
	n := 0
	dv.explore(goal, 0, func() bool {
		n++
		if each == nil {
			return false // stop at the first success, keeping the state
		}
		return each(bindingsOf(goal, dv.env)) && (max <= 0 || n < max)
	})
	res := &Result{Success: n > 0, Stats: dv.stats()}
	res.Stats.Successes = int64(n)
	if dv.err != nil {
		d.Undo(dbMark)
		res.Stats.Truncated = errors.Is(dv.err, ErrBudget) || errors.Is(dv.err, ErrDepth)
		return res, dv.err
	}
	if each != nil || n == 0 {
		d.Undo(dbMark)
		return res, nil
	}
	res.Bindings = bindingsOf(goal, dv.env)
	if e.opts.Trace {
		res.Trace = append([]TraceEntry(nil), dv.trace...)
		res.Spans = dv.buildSpans(goal.String(), res.Stats)
		if e.opts.SpanSink != nil {
			e.opts.SpanSink.Emit(res.Spans)
		}
	}
	return res, nil
}

// Prove searches for a successful execution of goal starting from d.
// On success, d is left in the final state of the witness execution; on
// failure (or error) d is rolled back to its initial state.
func (e *Engine) Prove(goal ast.Goal, d *db.DB) (*Result, error) {
	res, err := e.search(goal, d, 0, nil)
	if err == nil && res.Success {
		d.ResetTrail()
	}
	return res, err
}

// ProveDelta is Prove for transactional callers (the transaction server,
// which manages commit and rollback itself). It searches exactly like
// Prove, but on success it leaves the witness execution's changes on d's
// undo trail — instead of committing them with ResetTrail — and returns
// them as an ordered write set. The caller owns the trail: Undo back to its
// own mark to abort, or ResetTrail to commit. On failure or error, d is
// rolled back to the state at entry (changes from earlier ProveDelta calls
// on the same trail are untouched).
func (e *Engine) ProveDelta(goal ast.Goal, d *db.DB) (*Result, []db.Op, error) {
	dbMark := d.Mark()
	res, err := e.search(goal, d, 0, nil)
	if err != nil || !res.Success {
		return res, nil, err
	}
	return res, d.DeltaSince(dbMark), nil
}

// Solutions enumerates executions of goal from d, up to max of them
// (max <= 0 means all). Each solution carries the answer bindings and a
// clone of the final database. d itself is always rolled back.
func (e *Engine) Solutions(goal ast.Goal, d *db.DB, max int) ([]Solution, *Result, error) {
	var sols []Solution
	res, err := e.search(goal, d, max, func(b map[string]term.Term) bool {
		sols = append(sols, Solution{Bindings: b, Final: d.Clone()})
		return true
	})
	return sols, res, err
}

// Enumerate runs emit once per successful execution of goal with that
// execution's answer bindings, up to max of them (max <= 0 means all), and
// rolls d back afterwards. Unlike Solutions it does not clone final
// database states, so it is the right shape for query serving. emit must
// not be nil.
func (e *Engine) Enumerate(goal ast.Goal, d *db.DB, max int, emit func(map[string]term.Term) bool) (*Result, error) {
	return e.search(goal, d, max, emit)
}

// bindingsOf extracts the values of goal's named free variables from env.
func bindingsOf(goal ast.Goal, env *term.Env) map[string]term.Term {
	out := make(map[string]term.Term)
	for _, v := range ast.Vars(goal, nil) {
		if v.VarName() == "_" || v.VarName() == "" {
			continue
		}
		w := env.Walk(v)
		if !w.IsVar() {
			out[v.VarName()] = w
		}
	}
	return out
}
