// Package analysis is the static analysis of Transaction Datalog programs.
// Analyze computes one facts layer per program (facts.go: predicate table,
// call graph, SCCs with their recursion class, recursive-call placement,
// left-to-right boundness) and every surface is a fold over it:
//
//   - Classify / ClassifyGoal (classify.go) place the whole program in one
//     of the paper's complexity fragments; CheckSafety lists unsafe rules;
//   - Vet (tdvet, passes.go) reports clause- and literal-granular
//     diagnostics: which exact literal makes a rule unsafe, which call
//     closes a recursion cycle under "|" (the feature that buys
//     RE-completeness, Theorem 4.4), which clause can never commit;
//   - Plan (tdplan, plan.go and adorn.go) computes adornments, literal
//     reorders and tabling-safety certificates;
//   - ReachesRecursion is the engine's path-cycle-check gate.
//
// Diagnostics carry a source position, a severity, a stable lint ID usable
// in "% tdvet:ignore" suppression pragmas, and a one-line pointer into the
// paper where the lint's rationale lives. The same Report is surfaced by
// the cmd/tdvet CLI, by engine load-time validation (engine.Options.Vet),
// and by the server's VET protocol verb.
//
// internal/datalog's magic-sets rewrite keeps its own b/f adornment: it
// works on the flat datalog.Rule representation of the baseline evaluator
// that tests use as an oracle, and sharing would make walkBound branch on
// its caller.
package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/parser"
)

// Severity ranks diagnostics. Only SevError makes Report.Err non-nil; the
// CLI's -Werror flag promotes warnings for CI purposes without changing
// the report itself.
type Severity uint8

// Severities, least to most severe.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", uint8(s))
	}
}

// MarshalJSON encodes the severity as its lowercase name, so wire payloads
// and -json output read "error" rather than 2.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the lowercase names produced by MarshalJSON.
func (s *Severity) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	switch name {
	case "info":
		*s = SevInfo
	case "warning":
		*s = SevWarning
	case "error":
		*s = SevError
	default:
		return fmt.Errorf("analysis: unknown severity %q", name)
	}
	return nil
}

// Lint IDs, stable across releases: they key golden tests, suppression
// pragmas, and downstream tooling.
const (
	// LintSafety: a variable may be unbound where an update or builtin
	// needs it ground (left-to-right sideways information passing).
	LintSafety = "safety"
	// LintUndefinedPred: a literal reads a predicate that has no rules, no
	// facts, and is never inserted — it can never succeed.
	LintUndefinedPred = "undefined-pred"
	// LintUnusedPred: a derived predicate is never called anywhere.
	LintUnusedPred = "unused-pred"
	// LintArity: one predicate name is used with several arities.
	LintArity = "arity"
	// LintUpdateDerived: ins/del targets a predicate defined by rules.
	LintUpdateDerived = "update-derived"
	// LintRecursionConc: a recursive call sits under concurrent
	// composition — the program leaves every decidable fragment.
	LintRecursionConc = "recursion-under-conc"
	// LintUnboundedUpdate: an update executes inside a recursive clause,
	// so the number of updates is not bounded by the goal.
	LintUnboundedUpdate = "unbounded-update"
	// LintDeadClause: a clause is unreachable from every ?- query.
	LintDeadClause = "dead-clause"
	// LintNeverCommit: a body provably fails on every execution path.
	LintNeverCommit = "never-commit"
	// LintFragment: the program-level fragment/complexity classification.
	LintFragment = "fragment"
	// LintPlan: an informational tdplan decision — a rule body was
	// reordered under some adornment. Suppressible like any lint.
	LintPlan = "plan"
)

// Diagnostic is one analyzer finding, anchored to a 1-based source
// position. Program-level diagnostics (the fragment classification) are
// anchored at 1:1.
type Diagnostic struct {
	Line int      `json:"line"`
	Col  int      `json:"col"`
	Sev  Severity `json:"severity"`
	ID   string   `json:"id"`
	Msg  string   `json:"message"`
	// Cite points at the paper result motivating the lint, e.g.
	// "Theorem 4.4: recursion through | is RE-complete".
	Cite string `json:"cite,omitempty"`
}

// String renders the diagnostic in the conventional compiler format:
//
//	3:5: error: recursive call to simulate/0 under '|' [recursion-under-conc] (Theorem 4.4)
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d:%d: %s: %s [%s]", d.Line, d.Col, d.Sev, d.Msg, d.ID)
	if d.Cite != "" {
		b.WriteString(" (")
		b.WriteString(d.Cite)
		b.WriteString(")")
	}
	return b.String()
}

// Report is the result of vetting one program.
type Report struct {
	// Diags holds the surviving diagnostics sorted by position then lint
	// ID. It includes the program-level fragment info diagnostic.
	Diags []Diagnostic `json:"diagnostics"`
	// Fragment is the paper-fragment name Classify assigns
	// ("sequential TD", "full TD", ...).
	Fragment string `json:"fragment"`
	// Complexity is the data-complexity class the fragment implies.
	Complexity string `json:"complexity"`
	// Suppressed counts diagnostics dropped by tdvet:ignore pragmas.
	Suppressed int `json:"suppressed,omitempty"`
}

// Counts returns the number of error- and warning-severity diagnostics.
func (r *Report) Counts() (errs, warns int) {
	for _, d := range r.Diags {
		switch d.Sev {
		case SevError:
			errs++
		case SevWarning:
			warns++
		}
	}
	return errs, warns
}

// Err returns a *VetError when the report contains error-severity
// diagnostics, nil otherwise.
func (r *Report) Err() error {
	var errs []Diagnostic
	for _, d := range r.Diags {
		if d.Sev == SevError {
			errs = append(errs, d)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return &VetError{Diags: errs}
}

// VetError is the error form of a report with error-severity diagnostics,
// returned by Report.Err and by the engine when Options.Vet rejects a
// program at load time.
type VetError struct {
	Diags []Diagnostic // error-severity diagnostics only, in report order
}

func (e *VetError) Error() string {
	if len(e.Diags) == 1 {
		return "vet: " + e.Diags[0].String()
	}
	return fmt.Sprintf("vet: %s (and %d more errors)", e.Diags[0], len(e.Diags)-1)
}

// Vet runs every analysis pass over prog and returns the report. The
// program may come from the parser (positions and pragmas populated) or be
// built programmatically (zero positions; no suppression). Vet never
// mutates prog and runs no transactions — it is pure load-time analysis.
func Vet(prog *ast.Program) *Report { return Analyze(prog).Vet() }

// Vet folds the facts into the tdvet report.
func (f *Facts) Vet() *Report {
	v := &vetter{Facts: f}
	v.passSafety()
	v.passUndefined()
	v.passUnusedAndDead()
	v.passArity()
	v.passUpdateDerived()
	v.passRecursionUnderConc()
	v.passUnboundedUpdate()
	v.passNeverCommit()

	frag := f.Classify().Fragment
	rep := &Report{Fragment: frag.String(), Complexity: frag.Complexity()}
	v.diag(ast.Pos{Line: 1, Col: 1}, SevInfo, LintFragment,
		fmt.Sprintf("program is %s; data complexity: %s", frag, frag.Complexity()), "")

	rep.Diags, rep.Suppressed = applyPragmas(v.diags, f.prog.Pragmas)
	sort.SliceStable(rep.Diags, func(i, j int) bool {
		a, b := rep.Diags[i], rep.Diags[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.ID < b.ID
	})
	return rep
}

// VetSource parses src and vets the program. Parse errors are returned as
// is (they carry their own positions); the report is nil in that case.
func VetSource(src string) (*Report, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return Vet(prog), nil
}

// applyPragmas drops diagnostics suppressed by "% tdvet:ignore" comment
// directives. A pragma on line L suppresses matching diagnostics on line L
// (trailing pragma) and line L+1 (pragma on its own line above the
// offender). An empty ID list matches every lint.
func applyPragmas(diags []Diagnostic, pragmas []ast.Pragma) ([]Diagnostic, int) {
	if len(pragmas) == 0 {
		return diags, 0
	}
	byLine := make(map[int][]ast.Pragma, len(pragmas))
	for _, pr := range pragmas {
		byLine[pr.Line] = append(byLine[pr.Line], pr)
	}
	matches := func(pr ast.Pragma, id string) bool {
		if len(pr.IDs) == 0 {
			return true
		}
		for _, want := range pr.IDs {
			if want == id {
				return true
			}
		}
		return false
	}
	kept := diags[:0]
	suppressed := 0
	for _, d := range diags {
		drop := false
		for _, pr := range byLine[d.Line] {
			if matches(pr, d.ID) {
				drop = true
				break
			}
		}
		if !drop {
			for _, pr := range byLine[d.Line-1] {
				if matches(pr, d.ID) {
					drop = true
					break
				}
			}
		}
		if drop {
			suppressed++
			continue
		}
		kept = append(kept, d)
	}
	return kept, suppressed
}
