package db

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/term"
)

func sym(s string) term.Term { return term.NewSym(s) }

func row(ss ...string) []term.Term {
	out := make([]term.Term, len(ss))
	for i, s := range ss {
		out[i] = sym(s)
	}
	return out
}

func TestInsertDeleteSetSemantics(t *testing.T) {
	d := New()
	if !d.Insert("p", row("a")) {
		t.Fatal("first insert reported no change")
	}
	if d.Insert("p", row("a")) {
		t.Fatal("duplicate insert reported change")
	}
	if d.Size() != 1 || d.Count("p", 1) != 1 {
		t.Fatalf("size=%d count=%d", d.Size(), d.Count("p", 1))
	}
	if !d.Contains("p", row("a")) {
		t.Fatal("Contains false after insert")
	}
	if !d.Delete("p", row("a")) {
		t.Fatal("delete of present tuple reported no change")
	}
	if d.Delete("p", row("a")) {
		t.Fatal("delete of absent tuple reported change")
	}
	if d.Size() != 0 || d.Contains("p", row("a")) {
		t.Fatal("tuple still visible after delete")
	}
}

func TestArityDistinguishesRelations(t *testing.T) {
	d := New()
	d.Insert("p", row("a"))
	d.Insert("p", row("a", "b"))
	if d.Count("p", 1) != 1 || d.Count("p", 2) != 1 {
		t.Fatal("arities conflated")
	}
	if d.IsEmpty("p") {
		t.Fatal("IsEmpty wrong")
	}
	d.Delete("p", row("a"))
	if d.IsEmpty("p") {
		t.Fatal("IsEmpty must consider every arity")
	}
	d.Delete("p", row("a", "b"))
	if !d.IsEmpty("p") {
		t.Fatal("IsEmpty false on empty relation")
	}
}

func TestUndoRestoresExactState(t *testing.T) {
	d := New()
	d.Insert("p", row("a"))
	d.Insert("q", row("x", "y"))
	d.ResetTrail()
	fp := d.Fingerprint()

	mark := d.Mark()
	d.Insert("p", row("b"))
	d.Delete("q", row("x", "y"))
	d.Insert("q", row("z", "z"))
	d.Delete("p", row("a"))
	if d.Fingerprint() == fp {
		t.Fatal("fingerprint unchanged after changes")
	}
	d.Undo(mark)
	if d.Fingerprint() != fp {
		t.Fatal("fingerprint differs after undo")
	}
	if !d.Contains("p", row("a")) || !d.Contains("q", row("x", "y")) {
		t.Fatal("original tuples missing after undo")
	}
	if d.Contains("p", row("b")) || d.Contains("q", row("z", "z")) {
		t.Fatal("undone tuples still present")
	}
	if d.Size() != 2 {
		t.Fatalf("size = %d, want 2", d.Size())
	}
}

func TestNestedUndoMarks(t *testing.T) {
	d := New()
	d.Insert("p", row("a"))
	m1 := d.Mark()
	d.Insert("p", row("b"))
	m2 := d.Mark()
	d.Insert("p", row("c"))
	d.Undo(m2)
	if d.Contains("p", row("c")) || !d.Contains("p", row("b")) {
		t.Fatal("inner undo wrong")
	}
	d.Undo(m1)
	if d.Contains("p", row("b")) || !d.Contains("p", row("a")) {
		t.Fatal("outer undo wrong")
	}
}

// Property: the fingerprint is order-independent and content-determined.
func TestFingerprintOrderIndependent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		tuples := make([][]term.Term, n)
		for i := range tuples {
			tuples[i] = []term.Term{term.NewInt(int64(r.Intn(5))), term.NewInt(int64(r.Intn(5)))}
		}
		d1, d2 := New(), New()
		for _, tp := range tuples {
			d1.Insert("p", tp)
		}
		perm := r.Perm(n)
		for _, i := range perm {
			d2.Insert("p", tuples[i])
		}
		return d1.Fingerprint() == d2.Fingerprint() && d1.Equal(d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: random interleavings of insert/delete/mark/undo keep the DB
// consistent with a reference map implementation.
func TestUndoAgainstReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := New()
		ref := make(map[string]bool) // key "v" for p(v)
		type frame struct {
			mark int
			ref  map[string]bool
		}
		var stack []frame
		snapshot := func() map[string]bool {
			m := make(map[string]bool, len(ref))
			for k := range ref {
				m[k] = true
			}
			return m
		}
		vals := []string{"a", "b", "c", "d"}
		for step := 0; step < 200; step++ {
			switch r.Intn(4) {
			case 0:
				v := vals[r.Intn(len(vals))]
				d.Insert("p", row(v))
				ref[v] = true
			case 1:
				v := vals[r.Intn(len(vals))]
				d.Delete("p", row(v))
				delete(ref, v)
			case 2:
				stack = append(stack, frame{mark: d.Mark(), ref: snapshot()})
			case 3:
				if len(stack) > 0 {
					fr := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					d.Undo(fr.mark)
					ref = fr.ref
				}
			}
			// Invariant check.
			if d.Count("p", 1) != len(ref) {
				return false
			}
			for _, v := range vals {
				if d.Contains("p", row(v)) != ref[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func scanAll(d *DB, pred string, args []term.Term) []string {
	env := term.NewEnv()
	var got []string
	d.Scan(pred, args, env, func() bool {
		got = append(got, term.KeyOf(env.ResolveArgs(args)))
		return true
	})
	return got
}

func TestScanGroundLookup(t *testing.T) {
	d := New()
	d.Insert("p", row("a", "b"))
	if got := scanAll(d, "p", row("a", "b")); len(got) != 1 {
		t.Fatalf("ground scan hits = %d", len(got))
	}
	if got := scanAll(d, "p", row("a", "c")); len(got) != 0 {
		t.Fatalf("ground miss hits = %d", len(got))
	}
	if got := scanAll(d, "q", row("a")); len(got) != 0 {
		t.Fatalf("missing relation hits = %d", len(got))
	}
}

func TestScanWithVariables(t *testing.T) {
	for _, opt := range []struct {
		name string
		d    *DB
	}{
		{"indexed", New()},
		{"unindexed", New(WithoutIndex())},
	} {
		d := opt.d
		d.Insert("edge", row("a", "b"))
		d.Insert("edge", row("a", "c"))
		d.Insert("edge", row("b", "c"))

		x := term.NewVar("X", 0)
		got := scanAll(d, "edge", []term.Term{sym("a"), x})
		if len(got) != 2 {
			t.Errorf("%s: first-arg bound scan hits = %d, want 2", opt.name, len(got))
		}
		got = scanAll(d, "edge", []term.Term{x, sym("c")})
		if len(got) != 2 {
			t.Errorf("%s: second-arg bound scan hits = %d, want 2", opt.name, len(got))
		}
		y := term.NewVar("Y", 1)
		got = scanAll(d, "edge", []term.Term{x, y})
		if len(got) != 3 {
			t.Errorf("%s: open scan hits = %d, want 3", opt.name, len(got))
		}
		// Repeated variable: edge(X, X) matches nothing here.
		got = scanAll(d, "edge", []term.Term{x, x})
		if len(got) != 0 {
			t.Errorf("%s: edge(X,X) hits = %d, want 0", opt.name, len(got))
		}
		d.Insert("edge", row("d", "d"))
		got = scanAll(d, "edge", []term.Term{x, x})
		if len(got) != 1 {
			t.Errorf("%s: edge(X,X) hits = %d, want 1", opt.name, len(got))
		}
	}
}

func TestScanRespectsPriorBindings(t *testing.T) {
	d := New()
	d.Insert("p", row("a"))
	d.Insert("p", row("b"))
	env := term.NewEnv()
	x := term.NewVar("X", 0)
	env.Unify(x, sym("b"))
	count := 0
	d.Scan("p", []term.Term{x}, env, func() bool {
		count++
		return true
	})
	if count != 1 {
		t.Fatalf("hits = %d, want 1 (X pre-bound to b)", count)
	}
}

func TestScanEarlyStop(t *testing.T) {
	d := New()
	for _, v := range []string{"a", "b", "c"} {
		d.Insert("p", row(v))
	}
	env := term.NewEnv()
	x := term.NewVar("X", 0)
	count := 0
	completed := d.Scan("p", []term.Term{x}, env, func() bool {
		count++
		return false
	})
	if completed || count != 1 {
		t.Fatalf("completed=%v count=%d", completed, count)
	}
}

func TestScanBindingsUndoneBetweenYields(t *testing.T) {
	d := New()
	d.Insert("p", row("a"))
	d.Insert("p", row("b"))
	env := term.NewEnv()
	x := term.NewVar("X", 0)
	d.Scan("p", []term.Term{x}, env, func() bool { return true })
	if !env.Walk(x).IsVar() {
		t.Fatal("X still bound after Scan returned")
	}
	if env.Len() != 0 {
		t.Fatal("env not clean after Scan")
	}
}

func TestScanSnapshotsUnderMutation(t *testing.T) {
	d := New()
	d.Insert("p", row("a"))
	d.Insert("p", row("b"))
	env := term.NewEnv()
	x := term.NewVar("X", 0)
	visited := 0
	d.Scan("p", []term.Term{x}, env, func() bool {
		visited++
		d.Insert("p", []term.Term{term.NewInt(int64(visited + 100))})
		d.Delete("p", row("a"))
		d.Delete("p", row("b"))
		return true
	})
	if visited != 2 {
		t.Fatalf("visited = %d, want the 2 tuples present at scan start", visited)
	}
}

func TestCloneIndependence(t *testing.T) {
	d := New()
	d.Insert("p", row("a"))
	c := d.Clone()
	if !c.Equal(d) || c.Fingerprint() != d.Fingerprint() {
		t.Fatal("clone differs from original")
	}
	c.Insert("p", row("b"))
	if d.Contains("p", row("b")) {
		t.Fatal("mutating clone affected original")
	}
	d.Delete("p", row("a"))
	if !c.Contains("p", row("a")) {
		t.Fatal("mutating original affected clone")
	}
	// Clone's index must work.
	x := term.NewVar("X", 0)
	if got := scanAll(c, "p", []term.Term{x}); len(got) != 2 {
		t.Fatalf("clone scan hits = %d, want 2", len(got))
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a, b := New(), New()
	a.Insert("p", row("x"))
	b.Insert("q", row("x"))
	if a.Equal(b) {
		t.Fatal("different relations reported equal")
	}
	b2 := New()
	b2.Insert("p", row("y"))
	if a.Equal(b2) {
		t.Fatal("different tuples reported equal")
	}
	b3 := New()
	b3.Insert("p", row("x"))
	if !a.Equal(b3) {
		t.Fatal("equal DBs reported different")
	}
}

func TestFromFactsAndString(t *testing.T) {
	facts := []term.Atom{
		term.NewAtom("tel", sym("mary"), term.NewInt(1234)),
		term.NewAtom("tel", sym("bob"), term.NewInt(5678)),
		term.NewAtom("ready"),
	}
	d, err := FromFacts(facts)
	if err != nil {
		t.Fatal(err)
	}
	want := "ready.\ntel(bob, 5678).\ntel(mary, 1234).\n"
	if got := d.String(); got != want {
		t.Errorf("String:\n%s\nwant:\n%s", got, want)
	}
	if atoms := d.Atoms(); len(atoms) != 3 {
		t.Errorf("Atoms len = %d", len(atoms))
	}
	if _, err := FromFacts([]term.Atom{term.NewAtom("p", term.NewVar("X", 0))}); err == nil {
		t.Error("non-ground fact accepted")
	}
}

func TestTuplesSorted(t *testing.T) {
	d := New()
	d.Insert("p", row("c"))
	d.Insert("p", row("a"))
	d.Insert("p", row("b"))
	got := d.Tuples("p", 1)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i, want := range []string{"a", "b", "c"} {
		if got[i][0].SymName() != want {
			t.Fatalf("tuple %d = %v, want %s", i, got[i], want)
		}
	}
}

func TestIndexConsistencyAfterChurn(t *testing.T) {
	d := New()
	// Insert and delete many tuples sharing first arguments, then verify
	// indexed scans agree with unindexed scans.
	u := New(WithoutIndex())
	r := rand.New(rand.NewSource(42))
	firsts := []string{"f1", "f2", "f3"}
	for i := 0; i < 500; i++ {
		f := firsts[r.Intn(len(firsts))]
		s := term.NewInt(int64(r.Intn(20)))
		tuple := []term.Term{sym(f), s}
		if r.Intn(2) == 0 {
			d.Insert("p", tuple)
			u.Insert("p", tuple)
		} else {
			d.Delete("p", tuple)
			u.Delete("p", tuple)
		}
	}
	if !d.Equal(u) {
		t.Fatal("indexed and unindexed stores diverged")
	}
	x := term.NewVar("X", 0)
	for _, f := range firsts {
		a := scanAll(d, "p", []term.Term{sym(f), x})
		b := scanAll(u, "p", []term.Term{sym(f), x})
		if len(a) != len(b) {
			t.Fatalf("index scan for %s found %d, unindexed %d", f, len(a), len(b))
		}
	}
}

// A unary relation keeps no first-argument index — a ground probe goes
// through the row map and a non-ground one has nothing bound to index by —
// and must scan, and report its reads, exactly as the index-free store
// does, through churn, rollback and Clone.
func TestUnaryRelationNeedsNoIndex(t *testing.T) {
	type obs struct {
		kind  ReadKind
		pred  string
		key   Key128
		first uint64
	}
	x := term.NewVar("X", 0)
	run := func(d *DB) (scans [][]string, reads []obs) {
		d.Insert("edge", row("a", "b"))
		for _, s := range []string{"a", "b", "c", "d"} {
			d.Insert("done", row(s))
		}
		d.Delete("done", row("b"))
		mark := d.Mark()
		d.Insert("done", row("e"))
		d.Delete("done", row("a"))
		d.Undo(mark)
		d.ResetTrail()
		for _, d := range []*DB{d, d.Clone()} {
			if r := d.rel("done", 1, false); r.index != nil {
				t.Errorf("unary relation carries a first-argument index (%d buckets)", len(r.index))
			}
			if r := d.rel("edge", 2, false); d.useIndex && r.index == nil {
				t.Error("binary relation lost its first-argument index")
			}
			d.SetReadHook(func(kind ReadKind, pred string, _ int, key Key128, first uint64) {
				reads = append(reads, obs{kind, pred, key, first})
			})
			scans = append(scans,
				scanAll(d, "done", row("a")),
				scanAll(d, "done", row("b")),
				scanAll(d, "done", []term.Term{x}))
			d.Insert("done", row("a"))
			d.Delete("done", row("zzz"))
			d.SetReadHook(nil)
		}
		if got := d.Counters().IndexHits; got != 0 {
			t.Errorf("IndexHits = %d after unary scans, want 0", got)
		}
		return scans, reads
	}
	scans, reads := run(New())
	wantScans, wantReads := run(New(WithoutIndex()))
	if !reflect.DeepEqual(scans, wantScans) {
		t.Errorf("scans differ from the index-free store:\n got  %q\n want %q", scans, wantScans)
	}
	if !reflect.DeepEqual(reads, wantReads) {
		t.Errorf("read observations differ from the index-free store:\n got  %v\n want %v", reads, wantReads)
	}
	if len(scans[2]) != 3 {
		t.Errorf("open scan of done/1 found %d tuples, want 3", len(scans[2]))
	}
}

func TestResetTrail(t *testing.T) {
	d := New()
	d.Insert("p", row("a"))
	if d.TrailLen() != 1 {
		t.Fatalf("TrailLen = %d", d.TrailLen())
	}
	d.ResetTrail()
	if d.TrailLen() != 0 {
		t.Fatal("ResetTrail did not clear")
	}
	d.Undo(0) // no-op, must not remove committed tuple
	if !d.Contains("p", row("a")) {
		t.Fatal("Undo after ResetTrail removed committed tuple")
	}
}

func TestAllIterator(t *testing.T) {
	d := New()
	d.Insert("p", row("b"))
	d.Insert("p", row("a"))
	d.Insert("q", row("z"))
	var got []string
	for r := range d.All("p", 1) {
		got = append(got, r[0].SymName())
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("All = %v", got)
	}
	// Early break works.
	count := 0
	for range d.All("p", 1) {
		count++
		break
	}
	if count != 1 {
		t.Fatalf("early break visited %d", count)
	}
	var all []string
	for a := range d.AllAtoms() {
		all = append(all, a.String())
	}
	if len(all) != 3 || all[0] != "p(a)" || all[2] != "q(z)" {
		t.Fatalf("AllAtoms = %v", all)
	}
}

// Property: over random insert/delete sequences with backtracking, the
// delta since a mark is the net effect — it takes a clone of the state at
// the mark to the current state and fingerprint, names every tuple at most
// once, and is empty exactly when the fingerprint did not move.
func TestDeltaSinceIsNetEffect(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := New()
		vals := []string{"a", "b", "c", "d", "e"}
		update := func() {
			pred, rw := "p", row(vals[r.Intn(len(vals))])
			if r.Intn(3) == 0 {
				pred, rw = "q", row(vals[r.Intn(len(vals))], vals[r.Intn(2)])
			}
			if r.Intn(2) == 0 {
				d.Insert(pred, rw)
			} else {
				d.Delete(pred, rw)
			}
		}
		for i := 0; i < 6; i++ {
			update()
		}
		d.ResetTrail()
		base, baseFP := d.Clone(), d.Fingerprint()
		mark := d.Mark()
		var undo []int
		for step := 0; step < 60; step++ {
			switch r.Intn(8) {
			case 0:
				undo = append(undo, d.Mark())
			case 1:
				if n := len(undo); n > 0 {
					d.Undo(undo[n-1])
					undo = undo[:n-1]
				}
			default:
				update()
			}
			delta := d.DeltaSince(mark)
			seen := make(map[string]bool, len(delta))
			for i := range delta {
				k := delta[i].Pred + "/" + delta[i].Key()
				if seen[k] {
					t.Logf("seed %d: %s appears twice in %v", seed, k, delta)
					return false
				}
				seen[k] = true
			}
			if (len(delta) == 0) != (d.Fingerprint() == baseFP) {
				t.Logf("seed %d: %d net ops but fingerprint moved = %v", seed, len(delta), d.Fingerprint() != baseFP)
				return false
			}
			got := base.Clone()
			got.Apply(delta)
			if !got.Equal(d) || got.Fingerprint() != d.Fingerprint() {
				t.Logf("seed %d: base + %v =\n%s, want\n%s", seed, delta, got, d)
				return false
			}
			if got.TrailLen() != len(delta) {
				t.Logf("seed %d: %d of %d net ops had no effect on the base", seed, len(delta)-got.TrailLen(), len(delta))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// An op's conflict keys are the keys a read hook reports for reads at each
// granularity that cover the op's tuple.
func TestConflictKeysMatchReadObservations(t *testing.T) {
	d := New()
	d.Insert("p", row("a", "b"))
	d.Insert("n", nil)
	d.ResetTrail()
	got := map[ReadKind]Key128{}
	d.SetReadHook(func(kind ReadKind, _ string, _ int, key Key128, _ uint64) { got[kind] = key })
	x, y := term.NewVar("X", 0), term.NewVar("Y", 1)
	scanAll(d, "p", row("a", "b"))
	scanAll(d, "p", []term.Term{sym("a"), y})
	scanAll(d, "p", []term.Term{x, y})
	d.IsEmpty("p")
	op := Op{Insert: true, Pred: "p", Row: row("a", "b")}
	pred, rel, prefix, tuple := op.ConflictKeys()
	want := map[ReadKind]Key128{ReadKey: tuple, ReadPrefix: prefix, ReadRel: rel, ReadPred: pred}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("observed %v, op keys %v", got, want)
	}
	for _, probe := range []func(){
		func() { d.Contains("p", row("a", "b")) },
		func() { d.Insert("p", row("a", "b")) },
		func() { d.Delete("p", row("a", "zzz")); d.Delete("p", row("a", "b")) },
	} {
		delete(got, ReadKey)
		probe()
		if got[ReadKey] != tuple {
			t.Errorf("update/probe observed key %v, op key %v", got[ReadKey], tuple)
		}
	}
	// Absent relations and zero-arity tuples key the same way.
	scanAll(d, "n", nil)
	nop := Op{Pred: "n"}
	if _, _, _, tuple := nop.ConflictKeys(); got[ReadKey] != tuple {
		t.Errorf("zero-arity scan observed %v, op key %v", got[ReadKey], tuple)
	}
	d.Contains("absent", row("a"))
	aop := Op{Pred: "absent", Row: row("a")}
	if _, _, _, tuple := aop.ConflictKeys(); got[ReadKey] != tuple {
		t.Errorf("probe of a missing relation observed %v, op key %v", got[ReadKey], tuple)
	}
}
