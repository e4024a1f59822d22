package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/term"
)

// findDiags returns the diagnostics with the given lint ID.
func findDiags(rep *Report, id string) []Diagnostic {
	var out []Diagnostic
	for _, d := range rep.Diags {
		if d.ID == id {
			out = append(out, d)
		}
	}
	return out
}

// TestUpdateDerived builds a program programmatically (the parser's own
// Analyze hard-rejects updates on derived predicates, so this pass can only
// fire on hand-built programs) and checks both the derived and the builtin
// variant of the lint.
func TestUpdateDerived(t *testing.T) {
	prog := &ast.Program{
		Rules: []ast.Rule{
			{Head: term.NewAtom("p"), Body: ast.True{}},
			{Head: term.NewAtom("q"), Body: ast.NewSeq(
				&ast.Lit{Op: ast.OpIns, Atom: term.NewAtom("p")},
				&ast.Lit{Op: ast.OpDel, Atom: term.NewAtom("add", term.NewInt(1), term.NewInt(2), term.NewInt(3))},
			)},
		},
	}
	rep := Vet(prog)
	diags := findDiags(rep, LintUpdateDerived)
	if len(diags) != 2 {
		t.Fatalf("got %d update-derived diagnostics, want 2: %v", len(diags), rep.Diags)
	}
	for _, d := range diags {
		if d.Sev != SevError {
			t.Errorf("update-derived severity = %v, want error", d.Sev)
		}
		// Programmatic programs carry no positions; diag must clamp to 1:1.
		if d.Line != 1 || d.Col != 1 {
			t.Errorf("position = %d:%d, want clamped 1:1", d.Line, d.Col)
		}
	}
	if !strings.Contains(diags[0].Msg, "derived predicate p/0") {
		t.Errorf("first diagnostic should name the derived predicate: %q", diags[0].Msg)
	}
	if !strings.Contains(diags[1].Msg, "builtin") {
		t.Errorf("second diagnostic should name the builtin: %q", diags[1].Msg)
	}
	if rep.Err() == nil {
		t.Error("report with error diagnostics should have non-nil Err")
	}
}

// TestVetErrorMessage checks the error rendering used by the engine and the
// server when a program is rejected.
func TestVetErrorMessage(t *testing.T) {
	rep, err := VetSource("spin :- ins.tick | spin.\n?- spin.")
	if err != nil {
		t.Fatal(err)
	}
	verr := rep.Err()
	if verr == nil {
		t.Fatal("expected an error-severity report")
	}
	var ve *VetError
	if !asVetError(verr, &ve) {
		t.Fatalf("Err() = %T, want *VetError", verr)
	}
	msg := verr.Error()
	if !strings.Contains(msg, "vet: ") || !strings.Contains(msg, "recursion-under-conc") {
		t.Errorf("error message %q should carry the lint ID", msg)
	}
	if !strings.Contains(msg, "1:20:") {
		t.Errorf("error message %q should carry the literal position 1:20", msg)
	}
}

func asVetError(err error, target **VetError) bool {
	ve, ok := err.(*VetError)
	if ok {
		*target = ve
	}
	return ok
}

// TestSeverityJSON round-trips the severity names used on the wire.
func TestSeverityJSON(t *testing.T) {
	for _, sev := range []Severity{SevInfo, SevWarning, SevError} {
		b, err := json.Marshal(sev)
		if err != nil {
			t.Fatal(err)
		}
		var got Severity
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if got != sev {
			t.Errorf("round-trip %v -> %s -> %v", sev, b, got)
		}
	}
	var bad Severity
	if err := json.Unmarshal([]byte(`"fatal"`), &bad); err == nil {
		t.Error("unknown severity name should fail to unmarshal")
	}
}

// TestReportCounts checks the error/warning tally the CLI exit code is
// computed from.
func TestReportCounts(t *testing.T) {
	rep, err := VetSource("item(a).\nbad(X) :- item(X), del.item(Y).\ngo :- nothere(Z), ins.log(Z).\n?- bad(a).\n?- go.")
	if err != nil {
		t.Fatal(err)
	}
	errs, warns := rep.Counts()
	if errs != 1 {
		t.Errorf("errs = %d, want 1 (safety)", errs)
	}
	if warns != 1 {
		t.Errorf("warns = %d, want 1 (undefined-pred)", warns)
	}
}

// TestCorpusClean runs every shipped .td program (repo testdata and
// examples) through the analyzer and requires them to be free of warnings
// and errors — intentional full-TD demonstrations carry tdvet:ignore
// pragmas in the source.
func TestCorpusClean(t *testing.T) {
	for _, file := range corpusFiles(t) {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := VetSource(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			for _, d := range rep.Diags {
				if d.Sev >= SevWarning {
					t.Errorf("%s: %s", file, d)
				}
			}
		})
	}
}

func corpusFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, pat := range []string{
		filepath.Join("..", "..", "testdata", "*.td"),
		filepath.Join("..", "..", "examples", "programs", "*.td"),
	} {
		got, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, got...)
	}
	if len(files) == 0 {
		t.Fatal("no corpus programs found")
	}
	return files
}

// TestPragmaSuppression exercises the two pragma placements and the
// match-all form.
func TestPragmaSuppression(t *testing.T) {
	// Trailing pragma with explicit ID.
	rep, err := VetSource("go :- nope(X), ins.log(X). % tdvet:ignore undefined-pred\n?- go.")
	if err != nil {
		t.Fatal(err)
	}
	if got := findDiags(rep, LintUndefinedPred); len(got) != 0 {
		t.Errorf("trailing pragma did not suppress: %v", got)
	}
	if rep.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1", rep.Suppressed)
	}

	// Standalone pragma above the offender, bare form matches every lint.
	rep, err = VetSource("% tdvet:ignore\ngo :- nope(X), ins.log(X).\n?- go.")
	if err != nil {
		t.Fatal(err)
	}
	if got := findDiags(rep, LintUndefinedPred); len(got) != 0 {
		t.Errorf("standalone pragma did not suppress: %v", got)
	}

	// A pragma naming a different lint must not suppress.
	rep, err = VetSource("go :- nope(X), ins.log(X). % tdvet:ignore safety\n?- go.")
	if err != nil {
		t.Fatal(err)
	}
	if got := findDiags(rep, LintUndefinedPred); len(got) != 1 {
		t.Errorf("mismatched pragma suppressed anyway: %v", rep.Diags)
	}
	if rep.Suppressed != 0 {
		t.Errorf("Suppressed = %d, want 0", rep.Suppressed)
	}
}
