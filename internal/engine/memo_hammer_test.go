package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/parser"
	"repro/internal/term"
)

// TestMemoTableHammer runs many sessions concurrently over one shared
// MemoStore, each mutating its own live database replica between proofs:
// writes outside every region a cached proof read (a fresh edge between
// fresh nodes), writes inside one (an edge out of d, which every reach
// fill read; a val tuple, which big/1 scans), and rollbacks of both. Every
// session checks its tabled answers against a private untabled engine on
// the same replica state, so the hammer catches data races (under -race),
// cross-session answer leaks from the shared table — the replicas diverge,
// so one key's entry is valid for some and stale for others at once — and
// entries that outlive a write they depended on.
func TestMemoTableHammer(t *testing.T) {
	const (
		workers = 8
		iters   = 40
	)
	store := NewMemoStore(1)
	goals := []string{"reach(a, Y)", "big(X)", "reach(d, Y)"}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		tabled, dt := memoSetup(t, memoProg, &MemoOptions{Mode: "all", Store: store})
		_, dp := memoSetup(t, memoProg, nil)
		plain := NewDefault(tabled.Program())
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			both := func(f func(d *db.DB)) { f(dt); f(dp) }
			toggle := func(pred string, row []term.Term) {
				both(func(d *db.DB) {
					if !d.Delete(pred, row) {
						d.Insert(pred, row)
					}
					d.ResetTrail()
				})
			}
			sym := term.NewSym
			for i := 0; i < iters; i++ {
				switch i % 5 {
				case 1: // outside every region read
					toggle("edge", []term.Term{sym(fmt.Sprintf("w%d", w)), sym(fmt.Sprintf("i%d", i))})
				case 2: // inside: the bucket of d, and only on some replicas
					if (w+i)%2 == 0 {
						toggle("edge", []term.Term{sym("d"), sym(fmt.Sprintf("e%d", w%3))})
					}
				case 3: // inside big/1's scan
					toggle("val", []term.Term{sym("q"), term.NewInt(int64(5 + 10*(w%2)))})
				case 4: // written and rolled back: nothing moved
					both(func(d *db.DB) {
						mark := d.Mark()
						d.Insert("edge", []term.Term{sym("a"), sym("zz")})
						d.Undo(mark)
					})
				}
				goal := parser.MustParseGoal(goals[i%len(goals)], 1000)
				st, _, err := tabled.Solutions(goal, dt, 0)
				if err != nil {
					t.Errorf("worker %d iter %d: tabled: %v", w, i, err)
					return
				}
				sp, _, err := plain.Solutions(goal, dp, 0)
				if err != nil {
					t.Errorf("worker %d iter %d: plain: %v", w, i, err)
					return
				}
				a, b := solutionsKey(st), solutionsKey(sp)
				if strings.Join(a, "\n") != strings.Join(b, "\n") {
					t.Errorf("worker %d iter %d goal %s: answers diverged:\n tabled: %v\n plain:  %v",
						w, i, goals[i%len(goals)], a, b)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	snap := store.Snapshot()
	if snap.Hits == 0 || snap.Invalidations == 0 {
		t.Errorf("hammer never hit, or never invalidated, the shared table: %+v", snap)
	}
}
