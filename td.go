// Package td is a Transaction Datalog engine: an implementation of the
// concurrent database programming language of Anthony J. Bonner's
// "Workflow, Transactions, and Datalog" (PODS 1999).
//
// Transaction Datalog (TD) extends Datalog with elementary database
// updates (ins.p, del.p), sequential composition (","), concurrent
// composition ("|") whose processes communicate through the database, and
// an isolation modality (iso(...)) providing nested, serializable
// subtransactions. This package bundles:
//
//   - Parse / ParseGoal: the concrete syntax;
//   - Database: tuple storage with O(1) snapshots and rollback;
//   - Engine: the proof-theoretic interpreter deciding executional
//     entailment (does some execution of this transaction commit?), with
//     backtracking over interleavings, loop checking, and tabling;
//   - Simulator: the operational twin — committed-choice execution with
//     goroutines, blocking reads, atomic guarded rule firing, deadlock
//     detection, and invariant monitors;
//   - Classify: static fragment analysis mapping a program onto the
//     paper's complexity landscape (full / sequential / nonrecursive /
//     ins-only / fully bounded TD).
//
// A one-shot example:
//
//	res, final, err := td.Run(`
//	    account(alice, 100).
//	    account(bob, 50).
//	    withdraw(Amt, A) :- account(A, B), B >= Amt, del.account(A, B),
//	                        sub(B, Amt, C), ins.account(A, C).
//	    deposit(Amt, A)  :- account(A, B), del.account(A, B),
//	                        add(B, Amt, C), ins.account(A, C).
//	    transfer(Amt, A, B) :- withdraw(Amt, A), deposit(Amt, B).
//	`, `transfer(30, alice, bob)`)
//
// See the examples directory for workflow modeling, the genome-laboratory
// simulation, and the complexity constructions.
package td

import (
	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/sim"
	"repro/internal/term"
	"repro/internal/verify"
)

// Core re-exported types. These are aliases, so the internal packages'
// methods and functions apply directly.
type (
	// Program is a parsed TD program: rules, initial facts, and queries.
	Program = ast.Program
	// Goal is a TD goal formula.
	Goal = ast.Goal
	// Rule is one TD rule.
	Rule = ast.Rule
	// Term is a first-order term (constant or variable).
	Term = term.Term
	// Atom is a predicate applied to terms.
	Atom = term.Atom
	// Database is a set of ground atoms with undo-log rollback.
	Database = db.DB
	// FrozenDatabase is an immutable database value: updates return new
	// versions sharing structure (persistent HAMT); forking is O(1).
	FrozenDatabase = db.FrozenDB
	// Store couples a Database with a write-ahead log and snapshot
	// checkpoints for durability.
	Store = db.Store
	// Engine is the proof-theoretic interpreter.
	Engine = engine.Engine
	// EngineOptions configure proof search.
	EngineOptions = engine.Options
	// Result is a proof outcome.
	Result = engine.Result
	// Solution is one enumerated answer.
	Solution = engine.Solution
	// Simulator is the operational workflow engine.
	Simulator = sim.Sim
	// SimOptions configure a simulation.
	SimOptions = sim.Options
	// SimResult is a simulation outcome.
	SimResult = sim.Result
	// MonitorFunc observes the database after each update in a simulation.
	MonitorFunc = sim.MonitorFunc
	// FragmentReport is the static classification of a program.
	FragmentReport = analysis.FragmentReport
	// Fragment labels a TD sublanguage.
	Fragment = analysis.Fragment
	// SafetyIssue is a static safety warning.
	SafetyIssue = analysis.SafetyIssue
	// Diagnostic is one tdvet static-analysis finding.
	Diagnostic = analysis.Diagnostic
	// VetReport is the full result of vetting a program.
	VetReport = analysis.Report
	// VetError is the error form of a report with error-severity findings.
	VetError = analysis.VetError
	// Severity ranks diagnostics (SevInfo, SevWarning, SevError).
	Severity = analysis.Severity
	// PlanReport is the tdplan static-planner output: adornment
	// signatures, literal-reorder decisions, and per-predicate
	// tabling-safety certificates.
	PlanReport = analysis.PlanReport
	// PredPlan is one predicate's plan entry (its certificate plus the
	// per-rule, per-adornment body orders).
	PredPlan = analysis.PredPlan
)

// Diagnostic severities.
const (
	SevInfo    = analysis.SevInfo
	SevWarning = analysis.SevWarning
	SevError   = analysis.SevError
)

// Fragment labels, from most to least restricted.
const (
	NonRecursive = analysis.NonRecursive
	InsOnly      = analysis.InsOnly
	FullyBounded = analysis.FullyBounded
	Sequential   = analysis.Sequential
	Full         = analysis.Full
)

// Programmatic goal constructors, for building transactions without going
// through the concrete syntax. Compose them freely; pass the result to
// Engine.Prove / Simulator.Run (ResolveGoal is applied automatically).
//
//	g := td.SeqGoal(
//	    td.QueryGoal(td.NewAtom("account", td.Sym("alice"), td.Int(100))),
//	    td.DelGoal(td.NewAtom("account", td.Sym("alice"), td.Int(100))),
//	    td.InsGoal(td.NewAtom("account", td.Sym("alice"), td.Int(70))),
//	)

// TrueGoal returns the empty goal (always succeeds, no effect).
func TrueGoal() Goal { return ast.True{} }

// SeqGoal composes goals sequentially (the paper's ⊗).
func SeqGoal(goals ...Goal) Goal { return ast.NewSeq(goals...) }

// ConcGoal composes goals concurrently (the paper's |).
func ConcGoal(goals ...Goal) Goal { return ast.NewConc(goals...) }

// IsoGoal wraps a goal in the isolation modality (the paper's ⊙).
func IsoGoal(g Goal) Goal { return &ast.Iso{Body: g} }

// CallGoal invokes a derived predicate (or queries a base relation — the
// distinction is resolved against the program at execution time).
func CallGoal(a Atom) Goal { return &ast.Lit{Op: ast.OpCall, Atom: a} }

// QueryGoal tests tuple membership in a base relation.
func QueryGoal(a Atom) Goal { return &ast.Lit{Op: ast.OpQuery, Atom: a} }

// InsGoal inserts a tuple (arguments must be ground when it executes).
func InsGoal(a Atom) Goal { return &ast.Lit{Op: ast.OpIns, Atom: a} }

// DelGoal deletes a tuple (arguments must be ground when it executes).
func DelGoal(a Atom) Goal { return &ast.Lit{Op: ast.OpDel, Atom: a} }

// EmptyGoal tests that relation pred holds no tuples.
func EmptyGoal(pred string) Goal { return &ast.Empty{Pred: pred} }

// Sym returns a symbolic constant term.
func Sym(name string) Term { return term.NewSym(name) }

// Int returns an integer constant term.
func Int(v int64) Term { return term.NewInt(v) }

// Str returns a string constant term.
func Str(s string) Term { return term.NewStr(s) }

// NewAtom builds an atom from a predicate and arguments.
func NewAtom(pred string, args ...Term) Atom { return term.NewAtom(pred, args...) }

// Parse parses a TD program (facts, rules, and ?- query directives).
func Parse(src string) (*Program, error) { return parser.Parse(src) }

// ParseFile parses the TD program in the named file.
func ParseFile(path string) (*Program, error) { return parser.ParseFile(path) }

// MustParse is Parse that panics on error.
func MustParse(src string) *Program { return parser.MustParse(src) }

// ParseGoal parses a standalone goal such as a transaction invocation.
// Pass prog.VarHigh as startVar so goal variables do not collide with
// program variables.
func ParseGoal(src string, startVar int64) (Goal, int64, error) {
	return parser.ParseGoal(src, startVar)
}

// NewDatabase returns an empty database.
func NewDatabase() *Database { return db.New() }

// DatabaseFor builds the initial database from a program's facts.
func DatabaseFor(p *Program) (*Database, error) { return db.FromFacts(p.Facts) }

// Freeze snapshots a database into an immutable, O(1)-forkable value.
func Freeze(d *Database) FrozenDatabase { return db.FreezeDB(d) }

// OpenStore opens (or recovers) a durable database: snapshot + write-ahead
// log. See db.Store for the checkpointing API.
func OpenStore(snapshotPath, walPath string) (*Store, error) {
	return db.OpenStore(snapshotPath, walPath)
}

// NewEngine builds a proof-theoretic engine with the given options
// (zero-value limit fields take defaults).
func NewEngine(p *Program, opts EngineOptions) *Engine { return engine.New(p, opts) }

// NewDefaultEngine builds an engine with pruning on and tracing off.
func NewDefaultEngine(p *Program) *Engine { return engine.NewDefault(p) }

// NewSimulator builds an operational simulator.
func NewSimulator(p *Program, opts SimOptions) *Simulator { return sim.New(p, opts) }

// Classify statically places a program in the paper's complexity
// landscape.
func Classify(p *Program) FragmentReport { return analysis.Analyze(p).Classify() }

// ClassifyGoal classifies a program together with a top-level goal (a
// concurrent goal over a sequential rulebase changes the fragment — the
// Corollary 4.6 situation).
func ClassifyGoal(p *Program, g Goal) FragmentReport {
	return analysis.Analyze(p).ClassifyGoal(g)
}

// CheckSafety statically flags updates and builtins that may execute with
// unbound variables.
func CheckSafety(p *Program) []SafetyIssue { return analysis.Analyze(p).CheckSafety() }

// Vet runs the tdvet static analyzer: position-aware, clause- and
// literal-granular lints (safety, recursion through '|', dead clauses,
// never-committing bodies, ...) plus the fragment classification. Use
// EngineOptions.Vet to make an engine reject error-severity programs at
// load time.
func Vet(p *Program) *VetReport { return analysis.Vet(p) }

// VetSource parses src and vets the program.
func VetSource(src string) (*VetReport, error) { return analysis.VetSource(src) }

// Plan runs the tdplan static planner: interprocedural adornment analysis
// from the program's query entry points, semantics-preserving literal
// reordering per rule body and adornment, and a tabling-safety certificate
// per derived predicate. Use EngineOptions.Plan to have an engine apply
// the reordered bodies at load time.
func Plan(p *Program) *PlanReport { return analysis.Plan(p) }

// PlanSource parses src and plans the program.
func PlanSource(src string) (*PlanReport, error) { return analysis.PlanSource(src) }

// Run is the one-shot convenience: parse src, build the database from its
// facts, prove goal, and return the result together with the final
// database (the initial database when the goal fails).
func Run(src, goal string) (*Result, *Database, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	g, _, err := ParseGoal(goal, prog.VarHigh)
	if err != nil {
		return nil, nil, err
	}
	d, err := DatabaseFor(prog)
	if err != nil {
		return nil, nil, err
	}
	res, err := NewDefaultEngine(prog).Prove(g, d)
	if err != nil {
		return nil, d, err
	}
	return res, d, nil
}

// Verification facade (package verify): exhaustive analysis over ALL
// execution paths of a goal.
type (
	// InvariantResult reports whether a property holds in every reachable
	// database state.
	InvariantResult = verify.InvariantResult
	// SerializableResult reports whether concurrent outcomes all match
	// some serial order.
	SerializableResult = verify.SerializableResult
)

// CheckInvariant explores every execution path of goal from d and checks
// inv after every database change (and on the initial state).
func CheckInvariant(p *Program, goal Goal, d *Database, inv func(*Database) error, opts EngineOptions) (*InvariantResult, error) {
	return verify.Invariant(p, goal, d, inv, opts)
}

// ReachableFinals returns the distinct final databases of goal's
// committing executions.
func ReachableFinals(p *Program, goal Goal, d *Database, opts EngineOptions) ([]*Database, error) {
	return verify.Finals(p, goal, d, opts)
}

// CheckSerializable decides whether the concurrent composition of txns
// reaches only outcomes some serial order also reaches.
func CheckSerializable(p *Program, txns []Goal, d *Database, opts EngineOptions) (*SerializableResult, error) {
	return verify.Serializable(p, txns, d, opts)
}

// Simulate is the one-shot operational counterpart of Run.
func Simulate(src, goal string, opts SimOptions) (*SimResult, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	g, _, err := ParseGoal(goal, prog.VarHigh)
	if err != nil {
		return nil, err
	}
	d, err := DatabaseFor(prog)
	if err != nil {
		return nil, err
	}
	return NewSimulator(prog, opts).Run(g, d), nil
}
