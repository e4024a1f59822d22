package engine

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/db"
	"repro/internal/parser"
)

// badProg leaves every decidable fragment: the recursive call to spin sits
// under "|" (Theorem 4.4), which tdvet reports as an error.
const badProg = "spin :- ins.tick | spin.\n?- spin."

func TestOptionsVetRejectsAtLoadTime(t *testing.T) {
	prog, err := parser.Parse(badProg)
	if err != nil {
		t.Fatal(err)
	}
	e := New(prog, Options{Vet: true})
	if e.VetReport() == nil {
		t.Fatal("VetReport() = nil with Options.Vet on")
	}
	if e.Diagnostics() == nil {
		t.Fatal("Diagnostics() = nil with Options.Vet on")
	}

	d := db.New()
	goal := prog.Queries[0]
	_, perr := e.Prove(goal, d)
	if perr == nil {
		t.Fatal("Prove succeeded on a vet-rejected program")
	}
	var ve *analysis.VetError
	if !errors.As(perr, &ve) {
		t.Fatalf("Prove error = %T (%v), want *analysis.VetError", perr, perr)
	}
	// The error must name the offending literal's own position: the
	// recursive call "spin" at line 1, column 20.
	if !strings.Contains(perr.Error(), "1:20") {
		t.Errorf("error %q should carry the literal position 1:20", perr)
	}
	if !strings.Contains(perr.Error(), "recursion-under-conc") {
		t.Errorf("error %q should carry the lint ID", perr)
	}

	// Every Prove-family entry point is guarded.
	if _, _, err := e.Solutions(goal, d, 1); !errors.As(err, &ve) {
		t.Errorf("Solutions error = %v, want *analysis.VetError", err)
	}
	if _, _, err := e.ProveDelta(goal, d); !errors.As(err, &ve) {
		t.Errorf("ProveDelta error = %v, want *analysis.VetError", err)
	}
	if _, err := e.Enumerate(goal, d, 1, nil); !errors.As(err, &ve) {
		t.Errorf("Enumerate error = %v, want *analysis.VetError", err)
	}
}

func TestVetOffLeavesEngineAlone(t *testing.T) {
	prog, err := parser.Parse(badProg)
	if err != nil {
		t.Fatal(err)
	}
	e := New(prog, Options{})
	if e.VetReport() != nil {
		t.Error("VetReport() should be nil when Options.Vet is off")
	}
	if e.Diagnostics() != nil {
		t.Error("Diagnostics() should be nil when Options.Vet is off")
	}
}

func TestVetOnCleanProgramProves(t *testing.T) {
	prog, err := parser.Parse("job(j1).\nwork :- job(J), del.job(J), ins.done(J).\n?- work.")
	if err != nil {
		t.Fatal(err)
	}
	e := New(prog, Options{Vet: true})
	if rep := e.VetReport(); rep == nil || rep.Err() != nil {
		t.Fatalf("clean program should carry an error-free report, got %+v", rep)
	}
	d, err := db.FromFacts(prog.Facts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Prove(prog.Queries[0], d)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if !res.Success {
		t.Error("work should have a committing execution")
	}
}
