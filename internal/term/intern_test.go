package term

import (
	"fmt"
	"sync"
	"testing"
)

// The interner must hand out one id per distinct name, stably, under
// concurrent readers and writers. Run with -race (make check does) to
// exercise the sharded-lock fast path against concurrent interning.
func TestInternConcurrent(t *testing.T) {
	const (
		goroutines = 16
		names      = 200
	)
	// Every goroutine interns the same set of names in a different order
	// and records the ids it saw.
	got := make([][]uint32, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]uint32, names)
			for i := 0; i < names; i++ {
				// Shuffle the visit order per goroutine so shards are hit
				// in different sequences and first-intern races occur.
				j := (i*7 + g*13) % names
				ids[j] = Intern(fmt.Sprintf("conc-sym-%d", j))
			}
			got[g] = ids
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < names; i++ {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d saw id %d for name %d; goroutine 0 saw %d",
					g, got[g][i], i, got[0][i])
			}
		}
	}
	// Distinct names must have distinct ids.
	seen := make(map[uint32]bool, names)
	for i, id := range got[0] {
		if seen[id] {
			t.Fatalf("duplicate id %d (name %d)", id, i)
		}
		seen[id] = true
	}
}

// Interning is idempotent and NewSym reflects the interned id.
func TestInternStable(t *testing.T) {
	a := Intern("stable-name")
	b := Intern("stable-name")
	if a != b {
		t.Fatalf("Intern not idempotent: %d vs %d", a, b)
	}
	if got := NewSym("stable-name").SymID(); got != a {
		t.Fatalf("NewSym id %d != Intern id %d", got, a)
	}
}

// The empty symbol is interned at package init and always holds id 0, so
// symbols constructed before any user interning have a stable identity.
func TestInternEmptyIsZero(t *testing.T) {
	if id := Intern(""); id != 0 {
		t.Fatalf("Intern(\"\") = %d, want 0", id)
	}
	if a, b := NewSym(""), NewSym(""); !a.Equal(b) || a.SymID() != 0 {
		t.Fatalf("NewSym(\"\") unstable: id %d", a.SymID())
	}
}

// Code must be injective across ground terms of different kinds and
// values: symbols, strings, small ints (inline), and huge ints (interned
// decimal rendering).
func TestCodeInjective(t *testing.T) {
	terms := []Term{
		NewSym("x"),
		NewStr("x"), // same spelling, different kind
		NewSym("42"),
		NewInt(42),
		NewStr("42"),
		NewInt(-42),
		NewInt(0),
		NewSym(""),
		NewStr(""),
		NewInt(1 << 62),  // outside the inline 61-bit range
		NewInt(-1 << 62), // negative out-of-range
		NewInt((1 << 60)),
	}
	codes := make(map[uint64]Term, len(terms))
	for _, tm := range terms {
		c := tm.Code()
		if prev, ok := codes[c]; ok {
			t.Fatalf("code collision: %v and %v both map to %#x", prev, tm, c)
		}
		codes[c] = tm
		// FromCode inverts Code.
		if back, ok := FromCode(c); !ok || !back.Equal(tm) || back.String() != tm.String() {
			t.Fatalf("FromCode(Code(%v)) = %v, %v", tm, back, ok)
		}
	}
	for _, c := range []uint64{0, 5, 6, 7, uint64(InternedCount()+1)<<3 | 1, 1<<40 | 1} {
		if back, ok := FromCode(c); ok {
			t.Fatalf("FromCode(%#x) = %v for a code never handed out", c, back)
		}
	}
	// Equal terms must agree on their code.
	if NewInt(7).Code() != NewInt(7).Code() {
		t.Fatal("equal ints disagree on Code")
	}
	if NewSym("abc").Code() != NewSym("abc").Code() {
		t.Fatal("equal syms disagree on Code")
	}
}

// AppendKey must be deterministic and distinguish distinct rows.
func TestAppendKeyDistinct(t *testing.T) {
	rows := [][]Term{
		{NewSym("a"), NewSym("b")},
		{NewSym("b"), NewSym("a")},
		{NewSym("a"), NewStr("b")},
		{NewInt(1), NewInt(2)},
		{NewInt(12)},
	}
	seen := make(map[string]int)
	for i, row := range rows {
		k := string(AppendKey(nil, row))
		if j, ok := seen[k]; ok {
			t.Fatalf("rows %d and %d share key %q", i, j, k)
		}
		seen[k] = i
		if k2 := string(AppendKey(nil, row)); k2 != k {
			t.Fatalf("AppendKey not deterministic for row %d", i)
		}
	}
}
