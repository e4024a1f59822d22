package db

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/term"
)

func TestFrozenBasics(t *testing.T) {
	var f FrozenDB // zero value: empty
	if f.Size() != 0 || f.Contains("p", row("a")) {
		t.Fatal("zero FrozenDB not empty")
	}
	f1 := f.Insert("p", row("a"))
	if f1.Size() != 1 || !f1.Contains("p", row("a")) {
		t.Fatal("insert missing")
	}
	if f.Size() != 0 || f.Contains("p", row("a")) {
		t.Fatal("parent version mutated")
	}
	f2 := f1.Insert("p", row("a")) // set semantics
	if f2.Size() != 1 {
		t.Fatal("duplicate insert changed size")
	}
	f3 := f1.Delete("p", row("a"))
	if f3.Size() != 0 || f3.Contains("p", row("a")) {
		t.Fatal("delete failed")
	}
	if !f1.Contains("p", row("a")) {
		t.Fatal("delete mutated parent version")
	}
	f4 := f3.Delete("p", row("a"))
	if f4.Size() != 0 {
		t.Fatal("absent delete changed size")
	}
}

func TestFrozenVersionsDiverge(t *testing.T) {
	base := FrozenDB{}
	for i := 0; i < 100; i++ {
		base = base.Insert("p", []term.Term{term.NewInt(int64(i))})
	}
	// Two children diverge from the same parent; the parent and each
	// sibling stay intact.
	a := base.Insert("p", []term.Term{term.NewInt(1000)})
	b := base.Delete("p", []term.Term{term.NewInt(50)})
	if base.Size() != 100 || a.Size() != 101 || b.Size() != 99 {
		t.Fatalf("sizes: base=%d a=%d b=%d", base.Size(), a.Size(), b.Size())
	}
	if !a.Contains("p", []term.Term{term.NewInt(50)}) {
		t.Fatal("sibling a affected by b's delete")
	}
	if b.Contains("p", []term.Term{term.NewInt(1000)}) {
		t.Fatal("sibling b affected by a's insert")
	}
}

func TestFrozenAgainstReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fz := FrozenDB{}
		ref := map[string]bool{}
		for i := 0; i < 300; i++ {
			v := []term.Term{term.NewInt(int64(r.Intn(40))), term.NewSym(fmt.Sprintf("s%d", r.Intn(3)))}
			key := term.KeyOf(v)
			if r.Intn(2) == 0 {
				fz = fz.Insert("p", v)
				ref[key] = true
			} else {
				fz = fz.Delete("p", v)
				delete(ref, key)
			}
			if fz.Size() != len(ref) {
				return false
			}
		}
		// Final membership agreement.
		for i := 0; i < 40; i++ {
			for j := 0; j < 3; j++ {
				v := []term.Term{term.NewInt(int64(i)), term.NewSym(fmt.Sprintf("s%d", j))}
				if fz.Contains("p", v) != ref[term.KeyOf(v)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFreezeThawRoundTrip(t *testing.T) {
	d := New()
	d.Insert("p", row("a"))
	d.Insert("p", row("b", "c"))
	d.Insert("q", []term.Term{term.NewInt(7)})
	fz := FreezeDB(d)
	if fz.Size() != 3 || fz.Fingerprint() != d.Fingerprint() {
		t.Fatalf("freeze mismatch: size=%d", fz.Size())
	}
	back := fz.Thaw()
	if !back.Equal(d) {
		t.Fatalf("thaw differs:\n%s\nvs\n%s", back, d)
	}
}

func TestFrozenFingerprintMatchesMutable(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fz := FrozenDB{}
		d := New()
		for i := 0; i < 150; i++ {
			v := []term.Term{term.NewInt(int64(r.Intn(25)))}
			if r.Intn(2) == 0 {
				fz = fz.Insert("p", v)
				d.Insert("p", v)
			} else {
				fz = fz.Delete("p", v)
				d.Delete("p", v)
			}
		}
		return fz.Fingerprint() == d.Fingerprint() && fz.Size() == d.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFrozenCount(t *testing.T) {
	fz := FrozenDB{}
	for i := 0; i < 10; i++ {
		fz = fz.Insert("p", []term.Term{term.NewInt(int64(i))})
	}
	fz = fz.Insert("q", row("x"))
	if fz.Count("p", 1) != 10 || fz.Count("q", 1) != 1 || fz.Count("zz", 1) != 0 {
		t.Fatalf("counts: p=%d q=%d", fz.Count("p", 1), fz.Count("q", 1))
	}
}

func TestFrozenManyKeysDeepTrie(t *testing.T) {
	// Enough keys to force several trie levels; verify all present and
	// deletable.
	fz := FrozenDB{}
	const n = 5000
	for i := 0; i < n; i++ {
		fz = fz.Insert("p", []term.Term{term.NewInt(int64(i))})
	}
	if fz.Size() != n {
		t.Fatalf("size = %d", fz.Size())
	}
	for i := 0; i < n; i += 97 {
		if !fz.Contains("p", []term.Term{term.NewInt(int64(i))}) {
			t.Fatalf("missing %d", i)
		}
	}
	for i := 0; i < n; i++ {
		fz = fz.Delete("p", []term.Term{term.NewInt(int64(i))})
	}
	if fz.Size() != 0 {
		t.Fatalf("size after full delete = %d", fz.Size())
	}
}

func BenchmarkFrozenForkUpdate(b *testing.B) {
	fz := FrozenDB{}
	for i := 0; i < 10000; i++ {
		fz = fz.Insert("p", []term.Term{term.NewInt(int64(i))})
	}
	tmp := []term.Term{term.NewSym("x")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fork + 3 updates + drop: the A2 branching pattern.
		child := fz.Insert("tmp", tmp)
		child = child.Insert("tmp2", tmp)
		child = child.Delete("tmp", tmp)
		_ = child
	}
}

// FreezeDB builds its tries in one batch; the result must be the value the
// tuple-at-a-time build gives: same fingerprint and size, same Range order,
// and a Thaw that equals the source.
func TestFreezeDBMatchesChainedInsert(t *testing.T) {
	d := New()
	for i := 0; i < 3000; i++ {
		d.Insert("account", []term.Term{term.NewInt(int64(i)), term.NewInt(int64(i % 7))})
		if i%3 == 0 {
			d.Insert("done", []term.Term{term.NewSym(fmt.Sprintf("w%d", i))})
		}
	}
	d.Insert("flag", nil)
	d.Insert("gone", row("x"))
	d.Delete("gone", row("x")) // leaves an empty relation behind
	d.ResetTrail()

	chained := FrozenDB{}
	for _, ra := range d.Relations() {
		for _, r := range d.Tuples(ra.Pred, ra.Arity) {
			chained = chained.Insert(ra.Pred, r)
		}
	}
	fz := FreezeDB(d)
	if fz.Fingerprint() != d.Fingerprint() || fz.Size() != d.Size() {
		t.Fatalf("FreezeDB: fingerprint %v size %d, source has %v and %d", fz.Fingerprint(), fz.Size(), d.Fingerprint(), d.Size())
	}
	if !fz.Thaw().Equal(d) {
		t.Fatal("Thaw of FreezeDB differs from the source")
	}
	order := func(f FrozenDB) []string {
		var out []string
		f.Range(func(pred string, arity int, key string, _ []term.Term) bool {
			out = append(out, fmt.Sprintf("%s/%d|%s", pred, arity, key))
			return true
		})
		return out
	}
	if got, want := order(fz), order(chained); !reflect.DeepEqual(got, want) {
		t.Fatalf("Range order of the batch build differs from the chained build (%d vs %d tuples)", len(got), len(want))
	}
	if fz.Count("gone", 1) != 0 || fz.Contains("gone", row("x")) {
		t.Error("an emptied relation shows tuples in the frozen view")
	}
}

// ApplyOps takes each op's canonical key through the Op.Key memo, so the
// WAL append of the same slice does not build it again.
func TestFrozenApplyOpsMemoizesKeys(t *testing.T) {
	ops := []Op{
		{Insert: true, Pred: "p", Row: row("a", "b")},
		{Insert: true, Pred: "p", Row: row("c", "d")},
	}
	fz := FrozenDB{}.ApplyOps(ops)
	if fz.Size() != 2 || !fz.Contains("p", row("c", "d")) {
		t.Fatalf("ApplyOps built %d tuples", fz.Size())
	}
	for i := range ops {
		if ops[i].canon != term.KeyOf(ops[i].Row) {
			t.Errorf("op %d: canonical key not memoized by ApplyOps (canon = %q)", i, ops[i].canon)
		}
	}
}
