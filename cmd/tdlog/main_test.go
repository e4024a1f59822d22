package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	td "repro"
)

func testdata(name string) string {
	return filepath.Join("..", "..", "testdata", name)
}

func TestRunFileWithDirectives(t *testing.T) {
	if err := run(testdata("bank.td"), "", options{timeout: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithGoalFlag(t *testing.T) {
	if err := run(testdata("bank.td"), "transfer(10, bob, alice)", options{dumpDB: true, timeout: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSimMode(t *testing.T) {
	if err := run(testdata("workflow.td"), "", options{sim: true, timeout: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
}

func TestRunClassify(t *testing.T) {
	if err := run(testdata("workflow.td"), "", options{classify: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCheckSafety(t *testing.T) {
	if err := run(testdata("bank.td"), "", options{check: true}); err != nil {
		t.Fatal(err)
	}
	// An unsafe program must make -check fail.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.td")
	if err := os.WriteFile(bad, []byte("bad :- ins.p(X).\n?- bad.\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(bad, "", options{check: true}); err == nil {
		t.Fatal("-check accepted an unsafe program")
	}
	// A builtin at the wrong arity is tdvet's arity lint, not a crash: the
	// safety view reads eq/1 like any builtin, and X is bound by the head.
	arity := filepath.Join(dir, "arity.td")
	if err := os.WriteFile(arity, []byte("p(X) :- eq(X).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(arity, "", options{check: true}); err != nil {
		t.Fatalf("-check on eq/1: %v", err)
	}
}

func TestRunAllSolutions(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "p.td")
	if err := os.WriteFile(f, []byte("p(a). p(b).\n?- p(X).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(f, "", options{all: true, timeout: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingDirectives(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "nogoal.td")
	if err := os.WriteFile(f, []byte("p(a).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(f, "", options{}); err == nil {
		t.Fatal("file without directives and without -goal accepted")
	}
}

func TestREPLSession(t *testing.T) {
	prog, err := td.ParseFile(testdata("bank.td"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := td.DatabaseFor(prog)
	if err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader(strings.Join([]string{
		"transfer(30, alice, bob).",
		":db",
		":facts account(carol, 10).",
		"account(carol, N).",
		":classify",
		":trace on",
		"balance(alice, B).",
		":trace off",
		":reset",
		":db",
		"nonsense goal here(",
		":unknowncmd",
		":help",
		":quit",
	}, "\n"))
	var out bytes.Buffer
	if err := repl(prog, d, in, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"yes",                    // transfer succeeded
		"account(alice, 70).",    // :db after transfer
		"asserted 1 fact(s)",     // :facts
		"N = 10",                 // query over asserted fact
		"fragment:",              // :classify
		"account(alice, 100).",   // :db after :reset
		"error:",                 // bad goal
		"unknown command; :help", // bad command
	} {
		if !strings.Contains(text, want) {
			t.Errorf("REPL output missing %q:\n%s", want, text)
		}
	}
}

func TestREPLEOF(t *testing.T) {
	prog := td.MustParse("")
	d := td.NewDatabase()
	var out bytes.Buffer
	if err := repl(prog, d, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
}

// captureStdout returns what f printed to os.Stdout.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	f()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// Witness bindings print in name order, so two runs of one goal print the
// same bytes (they used to follow map iteration order).
func TestRunBindingsOrderIsStable(t *testing.T) {
	var first string
	for i := 0; i < 20; i++ {
		out := captureStdout(t, func() {
			if err := run(testdata("bank.td"), "balance(A, B)", options{timeout: 5 * time.Second}); err != nil {
				t.Fatal(err)
			}
		})
		if i == 0 {
			first = out
			if want := "  A = alice\n  B = 100\n"; !strings.Contains(out, want) {
				t.Fatalf("output %q does not contain %q", out, want)
			}
		} else if out != first {
			t.Fatalf("run %d printed\n%s\nrun 0 printed\n%s", i, out, first)
		}
	}
}
