package db

import (
	"testing"

	"repro/internal/term"
)

func TestCounters(t *testing.T) {
	d := New()
	a := term.NewSym("a")
	b := term.NewSym("b")
	n1 := term.NewInt(1)
	n2 := term.NewInt(2)
	d.Insert("edge", []term.Term{a, n1})
	d.Insert("edge", []term.Term{a, n2})
	d.Insert("edge", []term.Term{b, n1})
	base := d.Counters()
	if base.Lookups != 3 {
		t.Fatalf("inserts should count presence lookups: %+v", base)
	}

	env := term.NewEnv()
	vid := int64(0)
	newVar := func() term.Term { vid++; return term.NewVar("V", vid) }
	// Ground scan: a point lookup.
	d.Scan("edge", []term.Term{a, n1}, env, func() bool { return true })
	// First-arg bound: index hit. The bucket is kept in scan order, so
	// the scan rebuilds nothing.
	x := newVar()
	d.Scan("edge", []term.Term{a, x}, env, func() bool { return true })
	if got := d.Counters().OrderRebuilds; got != 0 {
		t.Errorf("bound-first-argument scan rebuilt order %d times, want 0", got)
	}
	// All vars: full relation scan, which sorts once for this epoch.
	y := newVar()
	d.Scan("edge", []term.Term{newVar(), y}, env, func() bool { return true })

	c := d.Counters()
	if got := c.Lookups - base.Lookups; got != 1 {
		t.Errorf("ground scan lookups = %d, want 1", got)
	}
	if c.IndexHits != 1 {
		t.Errorf("index hits = %d, want 1", c.IndexHits)
	}
	if c.Scans != 1 {
		t.Errorf("full scans = %d, want 1", c.Scans)
	}
	if c.OrderRebuilds != 1 {
		t.Errorf("order rebuilds = %d, want 1 (the relation snapshot)", c.OrderRebuilds)
	}

	// Re-scan without mutating: the cached relation snapshot, no rebuild.
	d.Scan("edge", []term.Term{a, newVar()}, env, func() bool { return true })
	d.Scan("edge", []term.Term{newVar(), newVar()}, env, func() bool { return true })
	if got := d.Counters().OrderRebuilds; got != 1 {
		t.Errorf("cached re-scan rebuilt order: 1 -> %d", got)
	}

	// Mutate: a bound-first-argument scan of the touched bucket still
	// rebuilds nothing, and the next full scan rebuilds exactly once.
	d.Insert("edge", []term.Term{a, term.NewInt(3)})
	d.Scan("edge", []term.Term{a, newVar()}, env, func() bool { return true })
	if got := d.Counters().OrderRebuilds; got != 1 {
		t.Errorf("post-mutation bucket scan rebuilt order: 1 -> %d", got)
	}
	d.Scan("edge", []term.Term{newVar(), newVar()}, env, func() bool { return true })
	d.Scan("edge", []term.Term{newVar(), newVar()}, env, func() bool { return true })
	if got := d.Counters().OrderRebuilds; got != 2 {
		t.Errorf("post-mutation full-scan rebuilds = %d, want 2", got)
	}

	// Clone starts with fresh counters.
	if cc := d.Clone().Counters(); cc != (Counters{}) {
		t.Errorf("clone counters not fresh: %+v", cc)
	}
}
