package db

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/term"
)

// regionRecount is the naive oracle for RegionFingerprint: the XOR of
// tupleHash over the rows of the region a plain filter of the relation
// finds. indexed says whether the DB keeps first-argument buckets.
func regionRecount(d *DB, indexed bool, kind ReadKind, pred string, arity int, first uint64) [2]uint64 {
	var lo, hi uint64
	for _, ra := range d.Relations() {
		if ra.Pred != pred || (kind != ReadPred && ra.Arity != arity) {
			continue
		}
		whole := kind == ReadPred || kind == ReadRel || arity == 0 || (arity > 1 && !indexed)
		for _, row := range d.Tuples(ra.Pred, ra.Arity) {
			if whole || row[0].Code() == first {
				l, h := tupleHash(ra.Pred, ra.Arity, row)
				lo ^= l
				hi ^= h
			}
		}
	}
	return [2]uint64{lo, hi}
}

// checkRegions compares every region of every relation the test uses — and
// of one it never touches — against the recount.
func checkRegions(t *testing.T, d *DB, indexed bool, firsts []term.Term, step string) {
	t.Helper()
	for _, pred := range []string{"p", "q", "never"} {
		if got, want := d.RegionFingerprint(ReadPred, pred, 0, 0), regionRecount(d, indexed, ReadPred, pred, 0, 0); got != want {
			t.Fatalf("%s: predicate %s fingerprints %x, recount %x", step, pred, got, want)
		}
		for arity := 0; arity <= 3; arity++ {
			if got, want := d.RegionFingerprint(ReadRel, pred, arity, 0), regionRecount(d, indexed, ReadRel, pred, arity, 0); got != want {
				t.Fatalf("%s: relation %s/%d fingerprints %x, recount %x", step, pred, arity, got, want)
			}
			for _, kind := range []ReadKind{ReadKey, ReadPrefix} {
				for _, f := range firsts {
					first := f.Code()
					if arity == 0 {
						first = 0
					}
					got, want := d.RegionFingerprint(kind, pred, arity, first), regionRecount(d, indexed, kind, pred, arity, first)
					if got != want {
						t.Fatalf("%s: region kind=%d %s/%d[%v] fingerprints %x, recount %x", step, kind, pred, arity, f, got, want)
					}
				}
			}
		}
	}
	// An emptied bucket kept for recycling holds no rows and no fingerprint.
	for _, r := range d.rels {
		if b := r.free; b != nil && (len(b.rows) != 0 || b.fpLo != 0 || b.fpHi != 0) {
			t.Fatalf("%s: recycled bucket of %s/%d holds %d rows, fingerprint {%x, %x}", step, r.pred, r.arity, len(b.rows), b.fpLo, b.fpHi)
		}
	}
}

// TestRegionFingerprintMatchesRecount drives random insert / delete / Undo /
// ResetTrail / Clone / Thaw sequences over arities 0-3, with and without
// first-argument indexes, and after every step checks each region's
// fingerprint against a recount of the rows a naive filter finds. Few
// distinct first arguments keep buckets filling, emptying and being
// recycled. A second database built from the final contents in another
// order must agree on every region.
func TestRegionFingerprintMatchesRecount(t *testing.T) {
	firsts := []term.Term{term.NewSym("a"), term.NewSym("b"), term.NewInt(7), term.NewStr("a")}
	others := []term.Term{term.NewSym("x"), term.NewInt(1), term.NewInt(2)}
	for _, indexed := range []bool{true, false} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("indexed=%v/seed=%d", indexed, seed), func(t *testing.T) {
				var opts []Option
				if !indexed {
					opts = append(opts, WithoutIndex())
				}
				rng := rand.New(rand.NewSource(seed))
				d := New(opts...)
				randRow := func() (string, []term.Term) {
					row := make([]term.Term, rng.Intn(4))
					for i := range row {
						if i == 0 {
							row[i] = firsts[rng.Intn(len(firsts))]
						} else {
							row[i] = others[rng.Intn(len(others))]
						}
					}
					return []string{"p", "q"}[rng.Intn(2)], row
				}
				var marks []int
				for step := 0; step < 400; step++ {
					var what string
					switch k := rng.Intn(20); {
					case k < 9:
						pred, row := randRow()
						d.Insert(pred, row)
						what = "insert"
					case k < 15:
						pred, row := randRow()
						d.Delete(pred, row)
						what = "delete"
					case k < 16:
						marks = append(marks, d.Mark())
						what = "mark"
					case k < 17:
						if n := len(marks); n > 0 {
							d.Undo(marks[n-1])
							marks = marks[:n-1]
						}
						what = "undo"
					case k < 18:
						d.ResetTrail()
						marks = marks[:0]
						what = "reset trail"
					case k < 19:
						d = d.Clone()
						marks = marks[:0]
						what = "clone"
					default:
						d = FreezeDB(d).Thaw(opts...)
						marks = marks[:0]
						what = "thaw"
					}
					checkRegions(t, d, indexed, firsts, fmt.Sprintf("step %d (%s)", step, what))
				}

				// The same tuples, inserted in reverse order with a detour.
				atoms := d.Atoms()
				o := New(opts...)
				o.Insert("p", []term.Term{firsts[0], others[0], others[0]})
				for i := len(atoms) - 1; i >= 0; i-- {
					o.Insert(atoms[i].Pred, atoms[i].Args)
				}
				if !d.Contains("p", []term.Term{firsts[0], others[0], others[0]}) {
					o.Delete("p", []term.Term{firsts[0], others[0], others[0]})
				}
				for _, pred := range []string{"p", "q"} {
					for arity := 0; arity <= 3; arity++ {
						for _, kind := range []ReadKind{ReadKey, ReadPrefix, ReadRel, ReadPred} {
							for _, f := range firsts {
								if a, b := d.RegionFingerprint(kind, pred, arity, f.Code()), o.RegionFingerprint(kind, pred, arity, f.Code()); a != b {
									t.Fatalf("kind=%d %s/%d[%v]: %x on one build order, %x on another", kind, pred, arity, f, a, b)
								}
							}
						}
					}
				}
			})
		}
	}
}
