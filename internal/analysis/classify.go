package analysis

import (
	"fmt"

	"repro/internal/ast"
)

// The fragment classifier places a program in the sublanguages whose data
// complexity Section 4 and Section 5 of the paper map out:
//
//	full TD                      RE-complete            (Theorem 4.4)
//	sequential TD (no "|")       EXPTIME-complete       (Theorem 4.5)
//	nonrecursive TD              inside PTIME           (Theorem 4.7)
//	ins-only TD                  Datalog-style fixpoint (Section 5 remark)
//	fully bounded TD             practical fragment     (Section 5)
//
// It is a fold over Facts: which derived predicates sit on call-graph
// cycles, where their recursive calls sit (tail of a sequential body vs.
// under concurrent composition or isolation), and which operators the rule
// bodies use.
//
// Fully bounded TD is reconstructed from the constraints Section 5 states
// (the full definition is in the paper's appendix, which the supplied text
// omits): recursion is restricted to sequential *tail* recursion — iteration,
// "executing a workflow over-and-over until some condition is satisfied" —
// and no recursive call may occur inside a concurrent composition or an
// isolated subgoal, so the number of concurrently active processes is
// bounded by the goal, not by the data.

// Fragment labels a TD sublanguage, ordered from most to least restricted.
type Fragment uint8

// Fragments. A program is labelled with the most restricted fragment it
// falls into.
const (
	// NonRecursive: no recursion at all. Data complexity inside PTIME
	// (Theorem 4.7).
	NonRecursive Fragment = iota
	// InsOnly: recursion allowed, tuple tests and insertions but no
	// deletion. Execution is monotone, so Datalog-style fixpoint techniques
	// (tabling, magic sets) apply.
	InsOnly
	// FullyBounded: recursion only as sequential tail recursion
	// (iteration), never under "|" or iso; deletions allowed. The paper's
	// practical fragment (Section 5).
	FullyBounded
	// Sequential: no concurrent composition anywhere, unrestricted
	// recursion. EXPTIME-complete (Theorem 4.5).
	Sequential
	// Full: everything — recursion through concurrency. RE-complete
	// (Theorem 4.4); three concurrent sequential processes suffice
	// (Corollary 4.6).
	Full
)

func (f Fragment) String() string {
	switch f {
	case NonRecursive:
		return "nonrecursive TD"
	case InsOnly:
		return "ins-only TD"
	case FullyBounded:
		return "fully bounded TD"
	case Sequential:
		return "sequential TD"
	case Full:
		return "full TD"
	default:
		return fmt.Sprintf("fragment(%d)", uint8(f))
	}
}

// Complexity returns the data-complexity class the paper assigns to the
// fragment.
func (f Fragment) Complexity() string {
	switch f {
	case NonRecursive:
		return "inside PTIME (Theorem 4.7)"
	case InsOnly:
		return "Datalog-style fixpoint; tabling and magic sets apply (Section 5)"
	case FullyBounded:
		return "practical fragment: iteration only, bounded process count (Section 5)"
	case Sequential:
		return "EXPTIME-complete (Theorem 4.5)"
	case Full:
		return "RE-complete (Theorem 4.4; Corollary 4.6)"
	default:
		return "unknown"
	}
}

// Features itemizes what the analysis found.
type Features struct {
	UsesConcurrency bool // "|" occurs in some rule body
	UsesIsolation   bool // iso(...) occurs
	UsesIns         bool
	UsesDel         bool
	UsesEmpty       bool
	Recursive       bool // some derived predicate is in a call-graph cycle
	// TailOnlyRecursion is true when every recursive call occurs as the
	// final step of a sequential rule body (iteration).
	TailOnlyRecursion bool
	// RecursionUnderConc is true when a recursive call occurs inside a
	// concurrent composition — the feature that buys RE-completeness.
	RecursionUnderConc bool
	// RecursionUnderIso is true when a recursive call occurs inside iso.
	RecursionUnderIso bool
	// RecursivePreds lists the predicates (pred/arity strings) in cycles.
	RecursivePreds []string
}

// FragmentReport is the classification of one program.
type FragmentReport struct {
	Fragment Fragment
	Features Features
}

// Classify places the program in the paper's complexity landscape.
func (f *Facts) Classify() FragmentReport {
	return FragmentReport{Fragment: classify(f.features), Features: f.features}
}

// ClassifyGoal classifies the program extended with a top-level goal,
// treating the goal as the body of an extra (non-recursive) rule. This
// matters because a goal like "p | p | p" introduces concurrency even over a
// purely sequential rulebase — exactly the setting of Corollary 4.6, where
// three concurrent sequential processes reach RE. Goal-level concurrency has
// a width fixed by the goal, so it does not by itself count as "recursion
// under concurrency" (no unbounded spawning); what pushes such a program to
// Full is the combination of concurrency with non-tail recursion in the
// rulebase (the stack processes of the construction).
func (f *Facts) ClassifyGoal(goal ast.Goal) FragmentReport {
	feats := f.features
	noteOperators(goal, &feats)
	return FragmentReport{Fragment: classify(feats), Features: feats}
}

func classify(f Features) Fragment {
	switch {
	case !f.Recursive:
		return NonRecursive
	case !f.UsesDel && !f.RecursionUnderIso:
		return InsOnly
	case f.TailOnlyRecursion && !f.RecursionUnderConc && !f.RecursionUnderIso:
		return FullyBounded
	case !f.UsesConcurrency:
		return Sequential
	default:
		return Full
	}
}

// noteOperators records which operators g uses.
func noteOperators(g ast.Goal, f *Features) {
	ast.Walk(g, func(sub ast.Goal) bool {
		switch sub := sub.(type) {
		case *ast.Conc:
			f.UsesConcurrency = true
		case *ast.Iso:
			f.UsesIsolation = true
		case *ast.Empty:
			f.UsesEmpty = true
		case *ast.Lit:
			switch sub.Op {
			case ast.OpIns:
				f.UsesIns = true
			case ast.OpDel:
				f.UsesDel = true
			}
		}
		return true
	})
}

// SafetyIssue describes one place where a rule may execute an update or a
// builtin with unbound variables. Safety in TD (the paper's sense: the
// language "does not generate an unbounded number of tuples") hinges on
// updates being ground when they execute; the engine enforces this at run
// time, and CheckSafety reports the static approximation so programs can be
// rejected early.
type SafetyIssue struct {
	Rule    int    // index into Program.Rules
	Pred    string // head predicate of the rule
	Problem string
}

func (s SafetyIssue) String() string {
	return fmt.Sprintf("rule %d (%s): %s", s.Rule, s.Pred, s.Problem)
}

// CheckSafety lists the safety issues of the program's rules: the rule-level
// view of the scan behind tdvet's safety lint (which also covers ?- queries
// and anchors each finding to a source position). Empty for safe programs.
func (f *Facts) CheckSafety() []SafetyIssue {
	var issues []SafetyIssue
	f.unsafe(func(rule int, _ ast.Goal, problem string) {
		if rule >= 0 {
			issues = append(issues, SafetyIssue{Rule: rule, Pred: f.prog.Rules[rule].Head.Pred, Problem: problem})
		}
	})
	return issues
}
