package db

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/term"
)

// scanRows returns the rows a Scan of pred(args) visits, in visit order.
func scanRows(d *DB, pred string, args []term.Term) [][]term.Term {
	env := term.NewEnv()
	var got [][]term.Term
	d.Scan(pred, args, env, func() bool {
		got = append(got, env.ResolveArgs(args))
		return true
	})
	return got
}

func rowsString(rows [][]term.Term) string {
	s := ""
	for _, r := range rows {
		s += term.Atom{Pred: "p", Args: r}.String() + " "
	}
	return s
}

// bucketReplica is one database of the differential run with its reference
// model (the tuple set, keyed by canonical key) and the model at each of its
// open marks.
type bucketReplica struct {
	d     *DB
	model map[string][]term.Term
	marks []int
	saved []map[string][]term.Term
}

// TestBucketScanDifferential drives random insert, delete, Mark/Undo and
// Clone sequences over an arity-2 relation with few first-argument values,
// so buckets grow, shrink, empty and are shared between a scan, a clone and
// the original. After every step, on the database acted on and on every
// clone, the full scan must hold exactly the model's tuples; after every
// other step on average, each bound-first-argument scan must yield exactly
// the sortRows order of the full scan's matching rows. (A bucket scan
// marks the bucket shared, so checking every bucket after every step would
// hide a clone that forgot to.) A scan whose yield inserts and deletes in
// the scanned bucket must still visit the rows present when it started.
func TestBucketScanDifferential(t *testing.T) {
	firsts := []term.Term{term.NewSym("a"), term.NewSym("b"), term.NewInt(7)}
	seconds := 12
	x := term.NewVar("X", 1)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randRow := func() []term.Term {
			return []term.Term{firsts[rng.Intn(len(firsts))], term.NewInt(int64(rng.Intn(seconds)))}
		}
		reps := []*bucketReplica{{d: New(), model: map[string][]term.Term{}}}

		check := func(step string) {
			t.Helper()
			for ri, r := range reps {
				full := r.d.Tuples("p", 2)
				if len(full) != len(r.model) {
					t.Fatalf("seed %d %s: replica %d full scan has %d rows, model %d", seed, step, ri, len(full), len(r.model))
				}
				for _, row := range full {
					if _, ok := r.model[term.KeyOf(row)]; !ok {
						t.Fatalf("seed %d %s: replica %d full scan has %v, not in model", seed, step, ri, row)
					}
				}
				if rng.Intn(2) == 0 {
					continue
				}
				for _, f := range firsts {
					var want [][]term.Term
					for _, row := range full {
						if row[0].Compare(f) == 0 {
							want = append(want, row)
						}
					}
					sortRows(want)
					got := scanRows(r.d, "p", []term.Term{f, x})
					if rowsString(got) != rowsString(want) {
						t.Fatalf("seed %d %s: replica %d bucket %v scans\n  %s\nwant\n  %s", seed, step, ri, f, rowsString(got), rowsString(want))
					}
				}
			}
		}

		for i := 0; i < 300; i++ {
			r := reps[rng.Intn(len(reps))]
			var step string
			switch op := rng.Intn(10); {
			case op < 3:
				row := randRow()
				r.d.Insert("p", row)
				r.model[term.KeyOf(row)] = row
				step = fmt.Sprintf("step %d ins %v", i, row)
			case op < 5:
				row := randRow()
				r.d.Delete("p", row)
				delete(r.model, term.KeyOf(row))
				step = fmt.Sprintf("step %d del %v", i, row)
			case op < 6:
				r.marks = append(r.marks, r.d.Mark())
				r.saved = append(r.saved, maps.Clone(r.model))
				step = fmt.Sprintf("step %d mark", i)
			case op < 7 && len(r.marks) > 0:
				n := len(r.marks) - 1
				r.d.Undo(r.marks[n])
				r.model = r.saved[n]
				r.marks, r.saved = r.marks[:n], r.saved[:n]
				step = fmt.Sprintf("step %d undo", i)
			case op < 8 && len(reps) < 4:
				// A clone starts with an empty undo log, so its marks do too.
				reps = append(reps, &bucketReplica{d: r.d.Clone(), model: maps.Clone(r.model)})
				step = fmt.Sprintf("step %d clone", i)
			default:
				// Mutate the scanned bucket from inside the scan's yield.
				f := firsts[rng.Intn(len(firsts))]
				var want [][]term.Term
				for _, row := range r.model {
					if row[0].Compare(f) == 0 {
						want = append(want, row)
					}
				}
				sortRows(want)
				env := term.NewEnv()
				var got [][]term.Term
				r.d.Scan("p", []term.Term{f, x}, env, func() bool {
					got = append(got, []term.Term{f, env.Walk(x)})
					row := []term.Term{f, term.NewInt(int64(rng.Intn(seconds)))}
					if rng.Intn(2) == 0 {
						r.d.Insert("p", row)
						r.model[term.KeyOf(row)] = row
					} else {
						r.d.Delete("p", row)
						delete(r.model, term.KeyOf(row))
					}
					return true
				})
				if rowsString(got) != rowsString(want) {
					t.Fatalf("seed %d step %d: scan of %v mutated in its yield visited\n  %s\nwant\n  %s", seed, i, f, rowsString(got), rowsString(want))
				}
				step = fmt.Sprintf("step %d scan-and-mutate %v", i, f)
			}
			check(step)
		}
	}
}

// A bucket the scan hands out is shared, so every mutation copies it until
// it is unshared again: churn inside one bucket must never leave a row
// visible in two places, nor lose one, whatever the bucket's size.
func TestBucketChurnKeepsOrder(t *testing.T) {
	d := New()
	a := term.NewSym("a")
	for i := 0; i < 64; i++ {
		d.Insert("p", []term.Term{a, term.NewInt(int64(2 * i))})
	}
	x := term.NewVar("X", 1)
	for i := 0; i < 64; i++ {
		odd := []term.Term{a, term.NewInt(int64(2*i + 1))}
		d.Insert("p", odd)
		rows := scanRows(d, "p", []term.Term{a, x})
		if !slices.IsSortedFunc(rows, compareRows) || len(rows) != 65 {
			t.Fatalf("round %d: %d rows, sorted %v", i, len(rows), slices.IsSortedFunc(rows, compareRows))
		}
		d.Delete("p", odd)
	}
}

// Clone shares each bucket's slice with the original, so both sides must
// copy it before their first mutation: deleting and inserting in a bucket no
// scan has touched, on either side, must leave the other side's scan as it
// was.
func TestCloneBucketsCopyOnWrite(t *testing.T) {
	a := term.NewSym("a")
	x := term.NewVar("X", 1)
	fill := func() *DB {
		d := New()
		for i := 0; i < 8; i++ {
			d.Insert("p", []term.Term{a, term.NewInt(int64(2 * i))})
		}
		return d
	}
	for _, mutateOriginal := range []bool{true, false} {
		d := fill()
		c := d.Clone()
		want := rowsString(scanRows(fill(), "p", []term.Term{a, x}))
		m, other := c, d
		if mutateOriginal {
			m, other = d, c
		}
		m.Delete("p", []term.Term{a, term.NewInt(4)})
		m.Insert("p", []term.Term{a, term.NewInt(5)})
		if got := rowsString(scanRows(other, "p", []term.Term{a, x})); got != want {
			t.Fatalf("mutating the original=%v changed the other side's bucket:\n  %s\nwant\n  %s", mutateOriginal, got, want)
		}
	}
}
