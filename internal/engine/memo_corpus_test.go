package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/parser"
	"repro/internal/term"
)

// Tabled evaluation must be invisible in the answers: for every corpus
// program and goal, an engine with every eligible predicate tabled
// returns exactly the solution multiset (bindings and final database
// fingerprints) of the untabled engine, and agrees on success/failure.
// Each goal runs twice under the tabled engine so the second pass
// replays memo hits over entries filled by the first.
func TestMemoDifferentialCorpus(t *testing.T) {
	for _, file := range planCorpus(t) {
		prog, err := parser.ParseFile(file)
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		plainOpts := DefaultOptions()
		tabledOpts := plainOpts
		tabledOpts.Memo = &MemoOptions{Mode: "all"}
		plain := New(prog, plainOpts)
		tabled := New(prog, tabledOpts)
		for i, g := range planGoals(t, prog) {
			name := fmt.Sprintf("%s/goal%d", filepath.Base(file), i)
			t.Run(name, func(t *testing.T) {
				sp, cp := planSolutions(t, plain, prog, g)
				// Pass 1 fills the memo table, pass 2 replays from it;
				// both must match the untabled multiset exactly.
				for pass := 1; pass <= 2; pass++ {
					st, ct := planSolutions(t, tabled, prog, g)
					if ct || cp {
						if ct != cp {
							t.Fatalf("pass %d: solution cap hit by one engine only: tabled=%v plain=%v", pass, ct, cp)
						}
						continue
					}
					if strings.Join(st, "\n") != strings.Join(sp, "\n") {
						t.Fatalf("pass %d: solution multisets differ:\n plain:  %v\n tabled: %v", pass, sp, st)
					}
				}

				// Success/failure parity on a single witness proof.
				dp := freshDB(t, prog)
				rp, err := plain.Prove(g, dp)
				if err != nil {
					t.Fatalf("plain prove: %v", err)
				}
				for pass := 1; pass <= 2; pass++ {
					dt := freshDB(t, prog)
					rt, err := tabled.Prove(g, dt)
					if err != nil {
						t.Fatalf("pass %d: tabled prove: %v", pass, err)
					}
					if rt.Success != rp.Success {
						t.Fatalf("pass %d: success differs: plain=%v tabled=%v", pass, rp.Success, rt.Success)
					}
				}
			})
		}
	}
}

// The machine encodings exercise the prover hardest; run them through the
// same differential check explicitly so a corpus reshuffle can't silently
// drop them. reachChainSrc is the read-only recursive encoding the tabled
// benchmark uses; the QBF/update encodings ship in testdata and are
// covered above (their update-bearing predicates are simply ineligible,
// so tabling must leave them bit-for-bit alone).
const reachChainSrc = `
edge(n0, n1). edge(n1, n2). edge(n2, n3). edge(n3, n4).
edge(n4, n5). edge(n5, n6). edge(n6, n7). edge(n7, n8).
edge(n2, n5). edge(n1, n6). edge(n0, n3).
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- edge(X, Y), reach(Y, Z).
`

func TestMemoDifferentialMachineEncoding(t *testing.T) {
	prog := parser.MustParse(reachChainSrc)
	plainOpts := DefaultOptions()
	tabledOpts := plainOpts
	tabledOpts.Memo = &MemoOptions{Mode: "all"}
	plain := New(prog, plainOpts)
	tabled := New(prog, tabledOpts)
	goals := []string{
		"reach(n0, n8)",
		"reach(n0, X)",
		"reach(X, n8)",
		"reach(X, Y)",
		"reach(n8, n0)",
	}
	for _, src := range goals {
		g := parser.MustParseGoal(src, 1000)
		sp, cp := planSolutions(t, plain, prog, g)
		for pass := 1; pass <= 2; pass++ {
			st, ct := planSolutions(t, tabled, prog, g)
			if ct != cp {
				t.Fatalf("%s pass %d: cap mismatch", src, pass)
			}
			if !ct && strings.Join(st, "\n") != strings.Join(sp, "\n") {
				t.Fatalf("%s pass %d: solution multisets differ:\n plain:  %v\n tabled: %v", src, pass, sp, st)
			}
		}
	}
	if st := tabled.MemoStats(); st == nil || st.Hits == 0 {
		t.Fatalf("machine-encoding differential never hit the memo table: %+v", st)
	}
}

// baseUpdate is one update of a base fact, applicable to several databases.
type baseUpdate struct {
	insert bool
	atom   term.Atom
}

func (u baseUpdate) apply(d *db.DB) {
	if u.insert {
		d.Insert(u.atom.Pred, u.atom.Args)
	} else {
		d.Delete(u.atom.Pred, u.atom.Args)
	}
	d.ResetTrail()
}

// randomBaseUpdate draws an update against d's current contents: the
// deletion of a present tuple, or the insertion of a present tuple with one
// argument replaced — by a constant of the same kind some tuple already
// carries (likely inside a region some cached proof read) or by a fresh one
// (likely outside every one). ok is false when d holds nothing to vary.
func randomBaseUpdate(rng *rand.Rand, d *db.DB, fresh int) (u baseUpdate, ok bool) {
	atoms := d.Atoms()
	if len(atoms) == 0 {
		return u, false
	}
	a := atoms[rng.Intn(len(atoms))]
	if rng.Intn(3) == 0 || len(a.Args) == 0 {
		return baseUpdate{insert: false, atom: a}, true
	}
	args := append([]term.Term(nil), a.Args...)
	pos := rng.Intn(len(args))
	var repl term.Term
	switch args[pos].Kind() {
	case term.Int:
		repl = term.NewInt(int64(100_000 + fresh))
	case term.Str:
		repl = term.NewStr(fmt.Sprintf("zz%d", fresh))
	default:
		repl = term.NewSym(fmt.Sprintf("zz%d", fresh))
	}
	if donor := atoms[rng.Intn(len(atoms))]; rng.Intn(2) == 0 && len(donor.Args) > 0 {
		if c := donor.Args[rng.Intn(len(donor.Args))]; c.Kind() == repl.Kind() {
			repl = c
		}
	}
	args[pos] = repl
	return baseUpdate{insert: true, atom: term.Atom{Pred: a.Pred, Args: args}}, true
}

// closesCycle reports whether u could close a cycle in an edge relation.
// Every edge fact of the test programs points from a name to a later one
// in string order, so an insertion that does too keeps the graph acyclic.
func closesCycle(u baseUpdate) bool {
	return u.insert && u.atom.Pred == "edge" && u.atom.Args[0].String() >= u.atom.Args[1].String()
}

// comparableSolutions enumerates g on d as a sorted multiset, or reports
// false when the enumeration is not comparable across engines: it hit the
// cap (the untabled engine stops there, a tabled fill must exhaust) or ran
// out of budget.
func comparableSolutions(t *testing.T, e *Engine, g ast.Goal, d *db.DB) ([]string, bool) {
	t.Helper()
	list, _, err := e.Solutions(g, d, planSolutionCap)
	if errors.Is(err, ErrBudget) || errors.Is(err, ErrDepth) {
		return nil, false
	}
	if err != nil {
		t.Fatalf("solutions: %v", err)
	}
	if len(list) == planSolutionCap {
		return nil, false
	}
	var sols []string
	for _, s := range list {
		fp := s.Final.Fingerprint()
		sols = append(sols, fmt.Sprintf("%s|%x.%x", renderBindings(s.Bindings), fp[0], fp[1]))
	}
	sort.Strings(sols)
	return sols, true
}

// underWritesExtra are programs the corpus is thin on — recursion through
// tabled calls, a tabled predicate calling a tabled predicate, predicate-
// level reads (empty) — with the goals to ask of them.
var underWritesExtra = []struct {
	name, src string
	goals     []string
}{
	{"reach-chain", reachChainSrc, []string{"reach(n0, n8)", "reach(n0, X)", "reach(X, n8)", "reach(n8, n0)", "reach(n2, X)"}},
	{"memo-prog", memoProg, []string{"reach(a, Y)", "reach(X, d)", "big(X)", "big(q)", "reach(c, c)"}},
	{"nested", memoHotProg + `
batch(b1, s1). batch(b1, s2). batch(b2, s2).
alarm(B) :- batch(B, S), hot(S).
quiet(B) :- batch(B, _), empty.flagged.
raise(B) :- alarm(B), ins.flagged(B).
`, []string{"alarm(B)", "alarm(b2)", "hot(S)", "quiet(b1)", "raise(b1)", "(raise(b1), quiet(b2))"}},
}

// TestMemoDifferentialCorpusUnderWrites interleaves random base-fact
// updates with tabled calls: one tabled engine keeps its answer tables
// across the whole run while its database changes underneath them, and
// after every update each goal must return, on the same contents, exactly
// the untabled engine's solution multiset. An entry that survived a write
// it should not have shows up as a stale answer here.
//
// One restriction, which is not about writes: an update that would close a
// cycle in an edge relation is redrawn. On cyclic data a recursive tabled
// predicate returns other multiplicities than untabled search, since a fill
// starts a fresh path (ROADMAP, the tabling item).
func TestMemoDifferentialCorpusUnderWrites(t *testing.T) {
	const rounds, restart = 200, 40
	type subject struct {
		name  string
		prog  *ast.Program
		goals []ast.Goal
	}
	var subjects []subject
	for _, file := range planCorpus(t) {
		prog, err := parser.ParseFile(file)
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		subjects = append(subjects, subject{filepath.Base(file), prog, planGoals(t, prog)})
	}
	for _, x := range underWritesExtra {
		sub := subject{name: x.name, prog: parser.MustParse(x.src)}
		for _, g := range x.goals {
			sub.goals = append(sub.goals, parser.MustParseGoal(g, 1000))
		}
		subjects = append(subjects, sub)
	}
	var hits, invalidations int64
	for i, sub := range subjects {
		tabledOpts := DefaultOptions()
		tabledOpts.Memo = &MemoOptions{Mode: "all"}
		plain, tabled := New(sub.prog, DefaultOptions()), New(sub.prog, tabledOpts)
		if tabled.memo == nil || len(sub.goals) == 0 {
			continue // nothing tabling-eligible: the engines are the same
		}
		t.Run(sub.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(i)))
			dt, dp := freshDB(t, sub.prog), freshDB(t, sub.prog)
			for round := 0; round <= rounds; round++ {
				if round%restart == 0 && round > 0 {
					// Back to the program's own facts, tables kept: entries
					// filled on these contents must hit again.
					dt, dp = freshDB(t, sub.prog), freshDB(t, sub.prog)
				}
				if round > 0 {
					u, ok := randomBaseUpdate(rng, dt, round)
					for ok && closesCycle(u) {
						u, ok = randomBaseUpdate(rng, dt, round)
					}
					if !ok {
						break
					}
					u.apply(dt)
					u.apply(dp)
				}
				for i, g := range sub.goals {
					sp, okp := comparableSolutions(t, plain, g, dp)
					st, okt := comparableSolutions(t, tabled, g, dt)
					if !okp || !okt {
						continue
					}
					if strings.Join(st, "\n") != strings.Join(sp, "\n") {
						t.Fatalf("round %d goal %d (%s): solution multisets differ:\n plain:  %v\n tabled: %v", round, i, g, sp, st)
					}
				}
				if !dt.Equal(dp) {
					t.Fatalf("round %d: the two databases diverged", round)
				}
			}
			snap := tabled.MemoStats()
			if snap.Hits == 0 || snap.Invalidations == 0 {
				t.Logf("%d hits, %d invalidations", snap.Hits, snap.Invalidations)
			}
			hits += snap.Hits
			invalidations += snap.Invalidations
		})
	}
	if hits == 0 || invalidations == 0 {
		t.Errorf("saw %d hits and %d invalidations: want both exercised", hits, invalidations)
	}
}
