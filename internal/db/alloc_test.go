package db

import (
	"testing"

	"repro/internal/term"
)

// Allocation regression guards for the hot-path operations. The zero-alloc
// claims here are load-bearing: the prover's inner loop calls Contains,
// Scan, Insert, and Delete on every proof step, and a regression to even
// one allocation per call shows up directly in BenchmarkProverTransfer.
// testing.AllocsPerRun disables parallelism and averages over many runs,
// so map-growth noise does not flake these.

func allocRow(a, b string) []term.Term {
	return []term.Term{term.NewSym(a), term.NewSym(b)}
}

// Insert of an already-present tuple must not allocate: the binary key is
// built in the DB's scratch buffer and the hit is found without
// materializing a string.
func TestInsertExistingAllocs(t *testing.T) {
	d := New()
	row := allocRow("alice", "bob")
	d.Insert("edge", row)
	d.ResetTrail()
	n := testing.AllocsPerRun(200, func() {
		d.Insert("edge", row)
	})
	if n != 0 {
		t.Errorf("Insert of existing tuple: %v allocs/op, want 0", n)
	}
}

// Delete of an absent tuple is a pure lookup miss: zero allocations.
func TestDeleteAbsentAllocs(t *testing.T) {
	d := New()
	d.Insert("edge", allocRow("alice", "bob"))
	d.ResetTrail()
	missing := allocRow("carol", "dave")
	n := testing.AllocsPerRun(200, func() {
		d.Delete("edge", missing)
	})
	if n != 0 {
		t.Errorf("Delete of absent tuple: %v allocs/op, want 0", n)
	}
}

// A ground Contains hit must not allocate.
func TestContainsHitAllocs(t *testing.T) {
	d := New()
	row := allocRow("alice", "bob")
	d.Insert("edge", row)
	d.ResetTrail()
	n := testing.AllocsPerRun(200, func() {
		if !d.Contains("edge", row) {
			panic("tuple vanished")
		}
	})
	if n != 0 {
		t.Errorf("ground Contains hit: %v allocs/op, want 0", n)
	}
}

// A fully ground Scan probe (all arguments constant) is a single lookup:
// zero allocations on the hit path.
func TestGroundScanAllocs(t *testing.T) {
	d := New()
	row := allocRow("alice", "bob")
	d.Insert("edge", row)
	d.ResetTrail()
	env := term.NewEnv()
	hits := 0
	n := testing.AllocsPerRun(200, func() {
		d.Scan("edge", row, env, func() bool {
			hits++
			return true
		})
	})
	if hits == 0 {
		t.Fatal("ground scan never matched")
	}
	if n != 0 {
		t.Errorf("ground Scan hit: %v allocs/op, want 0", n)
	}
}

// An insert+delete churn pair of a *new* tuple does allocate (the stored
// row copy, its key, and trail entries) but must stay under a small
// ceiling. This guards the whole mutation path — key building, index
// maintenance, fingerprint fold — against accidental per-op garbage.
func TestChurnAllocBound(t *testing.T) {
	d := New()
	// Pre-grow: a warm relation so map rehashing doesn't count.
	for i := 0; i < 512; i++ {
		d.Insert("p", []term.Term{term.NewInt(int64(i))})
	}
	d.ResetTrail()
	row := []term.Term{term.NewInt(99999)}
	n := testing.AllocsPerRun(200, func() {
		d.Insert("p", row)
		d.Delete("p", row)
		d.ResetTrail()
	})
	const ceiling = 8
	if n > ceiling {
		t.Errorf("insert+delete churn pair: %v allocs/op, want <= %d", n, ceiling)
	}
}

// Inserting a new tuple into a unary relation allocates the stored row,
// its key, and amortized map and trail growth, and nothing per tuple
// besides: no first-argument index bucket, which nothing would ever read
// (a bucket plus its map per done_*(W) fact, in every replica, was two
// thirds of the lab workload's live heap).
func TestUnaryInsertAllocBound(t *testing.T) {
	d := New()
	next := int64(0)
	row := make([]term.Term, 1)
	n := testing.AllocsPerRun(2000, func() {
		row[0] = term.NewInt(next)
		next++
		d.Insert("done", row)
		d.ResetTrail()
	})
	const ceiling = 3
	if n > ceiling {
		t.Errorf("insert of a new unary tuple: %v allocs/op, want <= %d", n, ceiling)
	}
}

// A read observation hands the hook a fixed-size fingerprint folded from
// term codes: with a hook installed, probes, scans of every granularity,
// emptiness tests and no-op updates still allocate nothing.
func TestReadObservationAllocs(t *testing.T) {
	d := New()
	row := allocRow("alice", "bob")
	d.Insert("edge", row)
	d.ResetTrail()
	seen := make(map[Key128]struct{})
	d.SetReadHook(func(_ ReadKind, _ string, _ int, key Key128, _ uint64) { seen[key] = struct{}{} })
	env := term.NewEnv()
	ground := row
	absent := allocRow("carol", "dave")
	n := testing.AllocsPerRun(200, func() {
		d.Contains("edge", row)
		d.Contains("nosuch", row)
		d.Scan("edge", ground, env, func() bool { return true })
		d.IsEmpty("edge")
		d.Insert("edge", row)
		d.Delete("edge", absent)
	})
	if n != 0 {
		t.Errorf("hooked reads: %v allocs/op, want 0", n)
	}
	if len(seen) == 0 {
		t.Fatal("hook never fired")
	}
}

// RegionFingerprint reads maintained fingerprints (and, for a unary
// relation, probes one key built in the DB's scratch): no allocation at any
// granularity, present or missing.
func TestRegionFingerprintAllocs(t *testing.T) {
	d := New()
	d.Insert("edge", allocRow("alice", "bob"))
	d.Insert("node", []term.Term{term.NewSym("alice")})
	d.Insert("flag", nil)
	d.ResetTrail()
	alice, carol := term.NewSym("alice").Code(), term.NewSym("carol").Code()
	var sink [2]uint64
	n := testing.AllocsPerRun(200, func() {
		for _, first := range []uint64{alice, carol} {
			sink = d.RegionFingerprint(ReadKey, "edge", 2, first)
			sink = d.RegionFingerprint(ReadPrefix, "edge", 2, first)
			sink = d.RegionFingerprint(ReadKey, "node", 1, first)
		}
		sink = d.RegionFingerprint(ReadKey, "flag", 0, 0)
		sink = d.RegionFingerprint(ReadRel, "edge", 2, 0)
		sink = d.RegionFingerprint(ReadPred, "edge", 0, 0)
		sink = d.RegionFingerprint(ReadPrefix, "nosuch", 2, alice)
	})
	_ = sink
	if n != 0 {
		t.Errorf("RegionFingerprint: %v allocs/op, want 0", n)
	}
}

// DeltaSince cancels on DB-owned scratch: after warm-up its one allocation
// is the slice it returns (none when everything cancelled).
func TestDeltaSinceAllocs(t *testing.T) {
	d := New()
	rows := make([][]term.Term, 8)
	for i := range rows {
		rows[i] = []term.Term{term.NewInt(int64(i))}
		d.Insert("available", rows[i])
	}
	d.ResetTrail()
	for _, r := range rows { // del … ins pairs that cancel, plus survivors
		d.Delete("available", r)
		d.Insert("available", r)
	}
	for i := range rows {
		d.Insert("done", rows[i])
	}
	if got := len(d.DeltaSince(0)); got != len(rows) {
		t.Fatalf("net delta has %d ops, want %d", got, len(rows))
	}
	if n := testing.AllocsPerRun(200, func() { d.DeltaSince(0) }); n > 1 {
		t.Errorf("DeltaSince: %v allocs/op, want <= 1", n)
	}
	if n := testing.AllocsPerRun(200, func() { d.DeltaSince(len(rows) * 2) }); n > 1 {
		t.Errorf("DeltaSince without cancellations: %v allocs/op, want <= 1", n)
	}
	d.Undo(len(rows) * 2)
	if n := testing.AllocsPerRun(200, func() {
		if d.DeltaSince(0) != nil {
			panic("cancelled delta not empty")
		}
	}); n != 0 {
		t.Errorf("DeltaSince of a cancelled trail: %v allocs/op, want 0", n)
	}
}
