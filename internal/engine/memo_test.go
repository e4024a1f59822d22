package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/term"
)

// memoSetup builds an engine with tabling on (Mode "all" unless overridden)
// and the program's fact database.
func memoSetup(t *testing.T, src string, memo *MemoOptions) (*Engine, *db.DB) {
	t.Helper()
	prog := parser.MustParse(src)
	d, err := db.FromFacts(prog.Facts)
	if err != nil {
		t.Fatal(err)
	}
	if memo == nil {
		memo = &MemoOptions{Mode: "all"}
	}
	opts := DefaultOptions()
	opts.Memo = memo
	return New(prog, opts), d
}

// solutionsKey flattens an answer multiset into sorted strings for
// multiset comparison.
func solutionsKey(sols []Solution) []string {
	out := make([]string, 0, len(sols))
	for _, s := range sols {
		keys := make([]string, 0, len(s.Bindings))
		for v := range s.Bindings {
			keys = append(keys, v)
		}
		sort.Strings(keys)
		line := ""
		for _, v := range keys {
			line += v + "=" + s.Bindings[v].String() + ";"
		}
		out = append(out, line)
	}
	sort.Strings(out)
	return out
}

const memoProg = `
edge(a, b). edge(b, c). edge(c, d). edge(b, d).
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
big(X) :- val(X, V), gt(V, 10).
val(p, 20). val(q, 5). val(r, 30).
`

// TestMemoHitReplay proves the same call twice: the first fills the table,
// the second replays, and both return the same answer multiset as an
// untabled engine.
func TestMemoHitReplay(t *testing.T) {
	e, d := memoSetup(t, memoProg, nil)
	plain := NewDefault(parser.MustParse(memoProg))

	goal := parser.MustParseGoal("reach(a, Y)", 1000)
	want, _, err := plain.Solutions(goal, d.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}

	sols1, res1, err := e.Solutions(goal, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.MemoMisses == 0 {
		t.Fatalf("first call: no memo miss recorded: %+v", res1.Stats)
	}
	sols2, res2, err := e.Solutions(goal, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.MemoHits == 0 {
		t.Fatalf("second call: no memo hit recorded: %+v", res2.Stats)
	}
	wantKey := solutionsKey(want)
	for i, sols := range [][]Solution{sols1, sols2} {
		got := solutionsKey(sols)
		if fmt.Sprint(got) != fmt.Sprint(wantKey) {
			t.Errorf("call %d: answers %v, want %v", i+1, got, wantKey)
		}
	}
	if st := e.MemoStats(); st == nil || st.Hits == 0 || st.Entries == 0 {
		t.Errorf("store snapshot missing hits/entries: %+v", st)
	}
}

// TestMemoFailureCached caches empty answer sets too: a failing call is a
// miss once and a (failing) hit afterwards.
func TestMemoFailureCached(t *testing.T) {
	e, d := memoSetup(t, memoProg, nil)
	goal := parser.MustParseGoal("reach(d, Y)", 1000)
	res1, err := e.Prove(goal, d)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e.Prove(goal, d)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Success || res2.Success {
		t.Fatal("reach(d, Y) should fail")
	}
	if res2.Stats.MemoHits == 0 {
		t.Errorf("failing call not served from table: %+v", res2.Stats)
	}
}

// TestMemoInvalidation mutates a region the fill read between calls: the
// entry must be dropped (stale fingerprint), and rolling a mutation back
// must restore hits — the fingerprint is content-based, not counter-based.
func TestMemoInvalidation(t *testing.T) {
	e, d := memoSetup(t, memoProg, nil)
	goal := parser.MustParseGoal("reach(a, Y)", 1000)
	if _, err := e.Prove(goal, d); err != nil {
		t.Fatal(err)
	}

	// Extend the chain at d, whose edge bucket every reach fill read: the
	// cached reach entries must go stale.
	row := []term.Term{term.NewSym("d"), term.NewSym("e")}
	d.Insert("edge", row)
	d.ResetTrail()
	sols, res, err := e.Solutions(goal, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MemoInvalidations == 0 {
		t.Errorf("no invalidation after support mutation: %+v", res.Stats)
	}
	found := false
	for _, s := range sols {
		if s.Bindings["Y"].Equal(term.NewSym("e")) {
			found = true
		}
	}
	if !found {
		t.Error("stale answers replayed: reach(a, e) missing after edge(d, e) insert")
	}

	// Mutate and roll back without an intermediate lookup: the content
	// fingerprint returns to the refill's state, so the entry hits — the
	// versioning is content-based, not counter-based (an Undo that
	// restores the tuples restores the hits).
	mark := d.Mark()
	d.Insert("edge", []term.Term{term.NewSym("x"), term.NewSym("y")})
	d.Undo(mark)
	res2, err := e.Prove(goal, d)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.MemoInvalidations != 0 {
		t.Errorf("rolled-back mutation invalidated: %+v", res2.Stats)
	}
	if res2.Stats.MemoHits == 0 {
		t.Errorf("rolled-back mutation missed: %+v", res2.Stats)
	}
}

// TestMemoReplicaSharing proves on one database replica and replays on
// another holding the same tuples: content fingerprints agree across
// replicas, so the second engine's session hits the shared store.
func TestMemoReplicaSharing(t *testing.T) {
	store := NewMemoStore(0)
	e1, d1 := memoSetup(t, memoProg, &MemoOptions{Mode: "all", Store: store})
	e2, d2 := memoSetup(t, memoProg, &MemoOptions{Mode: "all", Store: store})
	goal := parser.MustParseGoal("reach(a, Y)", 1000)
	if _, err := e1.Prove(goal, d1); err != nil {
		t.Fatal(err)
	}
	res, err := e2.Prove(goal, d2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MemoHits == 0 {
		t.Errorf("replica did not hit the shared store: %+v", res.Stats)
	}
}

// TestMemoKeyAliasing distinguishes p(X, Y) from p(X, X): the key encodes
// variable identity by first occurrence.
func TestMemoKeyAliasing(t *testing.T) {
	src := `
pair(a, b). pair(c, c).
both(X, Y) :- pair(X, Y).
`
	e, d := memoSetup(t, src, nil)
	free := parser.MustParseGoal("both(X, Y)", 1000)
	sols, _, err := e.Solutions(free, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 {
		t.Fatalf("both(X, Y): %d answers, want 2", len(sols))
	}
	same := parser.MustParseGoal("both(X, X)", 2000)
	sols, res, err := e.Solutions(same, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 || !sols[0].Bindings["X"].Equal(term.NewSym("c")) {
		t.Fatalf("both(X, X): answers %v, want exactly X=c", solutionsKey(sols))
	}
	if res.Stats.MemoHits != 0 {
		t.Errorf("both(X, X) reused both(X, Y)'s entry: %+v", res.Stats)
	}
}

// TestMemoAnswerAliasing replays body-made aliasing between call
// variables: same(X, Y) unifies X and Y without grounding either when
// called fully free... here via eq on queried values.
func TestMemoAnswerAliasing(t *testing.T) {
	src := `
val(p, 20). val(q, 5).
eqv(X, Y) :- val(X, V), val(Y, W), eq(V, W).
`
	e, d := memoSetup(t, src, nil)
	goal := parser.MustParseGoal("eqv(A, B)", 1000)
	want, _, err := NewDefault(parser.MustParse(src)).Solutions(goal, d.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, _, err := e.Solutions(goal, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(solutionsKey(got)) != fmt.Sprint(solutionsKey(want)) {
			t.Errorf("call %d: %v, want %v", i+1, solutionsKey(got), solutionsKey(want))
		}
	}
}

// TestMemoDuplicatesPreserved keeps the answer MULTISET: a ground call
// succeeding through two derivations replays two successes.
func TestMemoDuplicatesPreserved(t *testing.T) {
	src := `
p(a). q(a).
twice(X) :- p(X).
twice(X) :- q(X).
`
	e, d := memoSetup(t, src, nil)
	goal := parser.MustParseGoal("twice(a)", 1000)
	for i := 0; i < 2; i++ {
		sols, _, err := e.Solutions(goal, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(sols) != 2 {
			t.Errorf("call %d: %d successes, want 2 (multiset parity)", i+1, len(sols))
		}
	}
}

// TestMemoAutoSelection: auto mode tables only the top-K predicates by
// profile cost, and ineligible predicates are never tabled at all.
func TestMemoAutoSelection(t *testing.T) {
	src := `
val(p, 20).
big(X) :- val(X, V), gt(V, 10).
small(X) :- val(X, V), lt(V, 10).
write(X) :- ins.log(X).
`
	profile := map[string]PredProfile{
		"big":   {Calls: 100, TimeUs: 500},
		"small": {Calls: 1, TimeUs: 1},
	}
	e, _ := memoSetup(t, src, &MemoOptions{Mode: "auto", TopK: 1, Profile: profile})
	tabled := e.MemoTabled()
	if len(tabled) != 1 || tabled[0] != "big/1" {
		t.Errorf("auto top-1 tabled %v, want [big/1]", tabled)
	}

	// Named selection; update-bearing predicates stay out even when named.
	e2, _ := memoSetup(t, src, &MemoOptions{Mode: "small,write"})
	tabled = e2.MemoTabled()
	if len(tabled) != 1 || tabled[0] != "small/1" {
		t.Errorf("csv mode tabled %v, want [small/1]", tabled)
	}
}

// TestMemoEviction bounds the store: a tiny budget forces LRU eviction and
// counts it.
func TestMemoEviction(t *testing.T) {
	store := NewMemoStore(0)
	store.maxBytes = 600 // a few entries at most
	e, d := memoSetup(t, memoProg, &MemoOptions{Mode: "all", Store: store})
	for _, v := range []string{"a", "b", "c", "d"} {
		goal := parser.MustParseGoal("reach("+v+", Y)", 1000)
		if _, err := e.Prove(goal, d); err != nil {
			t.Fatal(err)
		}
	}
	st := store.Snapshot()
	if st.Evictions == 0 {
		t.Errorf("no evictions under a %d-byte budget: %+v", store.maxBytes, st)
	}
	if st.Bytes > 600+256 {
		t.Errorf("store bytes %d exceed the bound", st.Bytes)
	}
}

// TestMemoTraceAnnotations: span trees label tabled calls with
// [memo miss] on the filling call and [memo hit] on replays.
func TestMemoTraceAnnotations(t *testing.T) {
	prog := parser.MustParse(memoProg)
	d, err := db.FromFacts(prog.Facts)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Trace = true
	opts.Memo = &MemoOptions{Mode: "all"}
	e := New(prog, opts)
	goal := parser.MustParseGoal("big(p)", 1000)
	res1, err := e.Prove(goal, d)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e.Prove(goal, d)
	if err != nil {
		t.Fatal(err)
	}
	if !spanTreeContains(res1.Spans, "[memo miss]") {
		t.Errorf("fill call span missing [memo miss]: %v", res1.Spans)
	}
	if !spanTreeContains(res2.Spans, "[memo hit]") {
		t.Errorf("replay call span missing [memo hit]: %v", res2.Spans)
	}
}

func spanTreeContains(s *obs.Span, want string) bool {
	if s == nil {
		return false
	}
	if strings.Contains(s.Label, want) {
		return true
	}
	for _, c := range s.Children {
		if spanTreeContains(c, want) {
			return true
		}
	}
	return false
}

// TestMemoConcBypass: calls interleaving under un-isolated '|' must not be
// served from the table — a sibling's update between replayed answers
// would be invisible. The differential check: a concurrent sibling inserts
// the tuple the tabled call reads.
func TestMemoConcBypass(t *testing.T) {
	src := `
seen(X) :- mark(X).
flow(X) :- seen(X), ins.done(X).
`
	e, d := memoSetup(t, src, nil)
	goal := parser.MustParseGoal("ins.mark(m) | flow(m)", 1000)
	res, err := e.Prove(goal, d)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("interleaved goal failed with tabling on")
	}
	if res.Stats.MemoHits != 0 {
		t.Errorf("tabled replay under un-isolated '|': %+v", res.Stats)
	}
}

// TestMemoDisabledAllocs is the PR's zero-overhead guard: with Options.Memo
// nil the call dispatch path pays a nil check and nothing else, so a
// steady-state Prove allocates exactly what it allocated before tabling
// existed — 24 allocs/op for this goal on the pre-tabling engine (goal
// resolution, the Result, and the bindings map), measured on the same
// program/goal pair. Any growth here means the disabled path regressed.
func TestMemoDisabledAllocs(t *testing.T) {
	prog := parser.MustParse(memoProg)
	d, err := db.FromFacts(prog.Facts)
	if err != nil {
		t.Fatal(err)
	}
	e := NewDefault(prog)
	goal := parser.MustParseGoal("reach(a, d)", 1000)
	if _, err := e.Prove(goal, d); err != nil { // warm the deriv pool
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		if _, err := e.Prove(goal, d); err != nil {
			panic(err)
		}
	})
	if n > 24 {
		t.Errorf("memo-disabled Prove: %v allocs/op, want <= 24 (pre-tabling baseline)", n)
	}
}

// --- determining sets --------------------------------------------------------

// memoEntryOf returns the stored entry of a call literal, or nil.
func memoEntryOf(t *testing.T, e *Engine, d *db.DB, call string) *memoEntry {
	t.Helper()
	lit, ok := fuzzCallLit(call)
	if !ok {
		t.Fatalf("%s is not a call literal", call)
	}
	dv := newDeriv(e, d, lit)
	defer dv.release()
	key, _ := dv.appendMemoKey(nil, lit, nil)
	e.memo.store.mu.Lock()
	defer e.memo.store.mu.Unlock()
	return e.memo.store.entries[string(key)]
}

// depNames renders an entry's determining set, sorted.
func depNames(e *memoEntry) []string {
	var out []string
	for i := range e.deps {
		out = append(out, fmt.Sprintf("%d:%s", e.deps[i].kind, e.deps[i].String()))
	}
	sort.Strings(out)
	return out
}

// memoCall proves goal on the tabled engine, checks its answer multiset
// against an untabled engine on the same database, and returns the stats.
func memoCall(t *testing.T, e *Engine, d *db.DB, goal string) Stats {
	t.Helper()
	g := parser.MustParseGoal(goal, 1000)
	got, res, err := e.Solutions(g, d, 0)
	if err != nil {
		t.Fatalf("%s: tabled: %v", goal, err)
	}
	want, _, err := NewDefault(e.Program()).Solutions(g, d, 0)
	if err != nil {
		t.Fatalf("%s: untabled: %v", goal, err)
	}
	if a, b := solutionsKey(got), solutionsKey(want); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("%s: tabled answers %v, untabled %v", goal, a, b)
	}
	return res.Stats
}

const memoHotProg = `
sample_reading(s1, r1). sample_reading(s1, r2). sample_reading(s2, r3).
reading(r1, 100). reading(r2, 950). reading(r3, 200).
hot(S) :- sample_reading(S, R), reading(R, V), V > 900.
`

// TestMemoDeterminingSet pins what an entry depends on and what follows: a
// write outside every region the fill read leaves the hit, a write inside
// one costs exactly one invalidation and a correct refill, and undoing a
// write restores the hit.
func TestMemoDeterminingSet(t *testing.T) {
	e, d := memoSetup(t, memoHotProg, nil)
	if st := memoCall(t, e, d, "hot(s1)"); st.MemoMisses != 1 || st.MemoHits != 0 {
		t.Fatalf("first call: %+v, want one miss", st)
	}
	entry := memoEntryOf(t, e, d, "hot(s1)")
	if entry == nil {
		t.Fatal("no entry stored for hot(s1)")
	}
	want := []string{"1:reading/2[r1]", "1:reading/2[r2]", "1:sample_reading/2[s1]"}
	if got := depNames(entry); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("determining set %v, want %v", got, want)
	}

	sym, num := term.NewSym, term.NewInt
	// Outside: another sample's readings, and a fresh reading nobody owns.
	d.Insert("reading", []term.Term{sym("r3"), num(999)})
	d.Insert("reading", []term.Term{sym("r9"), num(999)})
	d.Insert("sample_reading", []term.Term{sym("s2"), sym("r9")})
	d.ResetTrail()
	if st := memoCall(t, e, d, "hot(s1)"); st.MemoHits != 1 || st.MemoMisses != 0 || st.MemoInvalidations != 0 || st.MemoStale != "" {
		t.Fatalf("after writes outside the set: %+v, want a plain hit", st)
	}

	// Inside, rolled back before anyone looks: still a hit.
	mark := d.Mark()
	d.Delete("reading", []term.Term{sym("r2"), num(950)})
	d.Undo(mark)
	if st := memoCall(t, e, d, "hot(s1)"); st.MemoHits != 1 || st.MemoInvalidations != 0 {
		t.Fatalf("after an undone write inside the set: %+v, want a hit", st)
	}

	// Inside: one invalidation, naming the bucket, and a refill that sees it.
	mark = d.Mark()
	d.Delete("reading", []term.Term{sym("r2"), num(950)})
	st := memoCall(t, e, d, "hot(s1)")
	if st.MemoInvalidations != 1 || st.MemoMisses != 1 || st.MemoHits != 0 || st.MemoStale != "reading/2[r2]" {
		t.Fatalf("after a write inside the set: %+v, want one invalidation of reading/2[r2] and a refill", st)
	}
	if st := memoCall(t, e, d, "hot(s1)"); st.MemoHits != 1 || st.MemoInvalidations != 0 {
		t.Fatalf("second call on the written state: %+v, want a hit on the refill", st)
	}
	// Undo of that write: the refill is now the stale one, once.
	d.Undo(mark)
	if st := memoCall(t, e, d, "hot(s1)"); st.MemoInvalidations != 1 || st.MemoMisses != 1 {
		t.Fatalf("after undoing the write: %+v, want one invalidation and a refill", st)
	}
	if st := memoCall(t, e, d, "hot(s1)"); st.MemoHits != 1 || st.MemoInvalidations != 0 {
		t.Fatalf("after undoing the write, second call: %+v, want a hit", st)
	}
	if snap := e.MemoStats(); snap.Invalidations != 2 {
		t.Errorf("store counted %d invalidations, want 2", snap.Invalidations)
	}
}

// TestMemoDepCap: a fill that reads one relation through more than
// memoDepCap buckets keeps one relation-level observation for it, stays
// correct, and is then invalidated by any write to that relation.
func TestMemoDepCap(t *testing.T) {
	var src strings.Builder
	n := memoDepCap + 6
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "owns(lab, m%d). reading(m%d, %d).\n", i, i, i)
	}
	src.WriteString("owns(annex, mm). reading(mm, 5).\n")
	src.WriteString("total(L, V) :- owns(L, M), reading(M, V).\n")
	e, d := memoSetup(t, src.String(), nil)
	memoCall(t, e, d, "total(lab, V)")
	entry := memoEntryOf(t, e, d, "total(lab, V)")
	if entry == nil {
		t.Fatal("no entry stored")
	}
	want := []string{"1:owns/2[lab]", "2:reading/2"}
	if got := depNames(entry); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("determining set past the cap: %v, want %v", got, want)
	}
	if st := memoCall(t, e, d, "total(lab, V)"); st.MemoHits != 1 {
		t.Fatalf("repeat call: %+v, want a hit", st)
	}
	d.Insert("reading", []term.Term{term.NewSym("unowned"), term.NewInt(1)})
	d.ResetTrail()
	if st := memoCall(t, e, d, "total(lab, V)"); st.MemoInvalidations != 1 || st.MemoStale != "reading/2" {
		t.Fatalf("write to the collapsed relation: %+v, want one invalidation of reading/2", st)
	}
	// Below the cap the same program keeps per-bucket observations.
	memoCall(t, e, d, "total(annex, V)")
	want = []string{"1:owns/2[annex]", "1:reading/2[mm]"}
	if got := depNames(memoEntryOf(t, e, d, "total(annex, V)")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("determining set below the cap: %v, want %v", got, want)
	}
}

// TestMemoNestedDeterminingSet: what a tabled predicate called from a
// tabled predicate read, the caller read — whether the inner call was a
// fill nested in the outer fill or a hit replayed into it. Either way a
// write only the inner proof saw invalidates the outer entry too.
func TestMemoNestedDeterminingSet(t *testing.T) {
	const src = `
sample_reading(s1, r1). reading(r1, 950). batch(b1, s1).
hot(S) :- sample_reading(S, R), reading(R, V), V > 900.
alarm(B) :- batch(B, S), hot(S).
`
	want := []string{"1:batch/2[b1]", "1:reading/2[r1]", "1:sample_reading/2[s1]"}
	for _, innerFirst := range []bool{false, true} {
		e, d := memoSetup(t, src, nil)
		if innerFirst {
			memoCall(t, e, d, "hot(s1)") // the outer fill will hit this entry
		}
		st := memoCall(t, e, d, "alarm(b1)")
		if innerFirst && (st.MemoHits != 1 || st.MemoMisses != 1) {
			t.Fatalf("inner entry present: %+v, want the outer fill to hit it", st)
		}
		if !innerFirst && st.MemoMisses != 2 {
			t.Fatalf("inner entry absent: %+v, want two nested fills", st)
		}
		if got := depNames(memoEntryOf(t, e, d, "alarm(b1)")); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("inner filled first=%v: outer determining set %v, want %v", innerFirst, got, want)
		}
		d.Delete("reading", []term.Term{term.NewSym("r1"), term.NewInt(950)})
		d.ResetTrail()
		if st := memoCall(t, e, d, "alarm(b1)"); st.MemoInvalidations == 0 || st.MemoHits != 0 {
			t.Fatalf("inner filled first=%v: write under the inner call: %+v, want the outer entry invalidated", innerFirst, st)
		}
	}
}

// TestMemoFillReadsReachInstalledHook: the fill tees the hook that was
// installed, a hit replays into it, and both leave it installed — with the
// same observations, which is what lets optimistic validation treat an
// answer from the table like the proof it stands for.
func TestMemoFillReadsReachInstalledHook(t *testing.T) {
	e, d := memoSetup(t, memoHotProg, nil)
	var seen []string
	hook := func(kind db.ReadKind, pred string, arity int, key db.Key128, first uint64) {
		dp := memoDep{kind: kind, pred: pred, arity: int32(arity), key: key, first: first}
		seen = append(seen, fmt.Sprintf("%d:%s:%x", kind, dp.String(), key))
	}
	d.SetReadHook(hook)
	observed := func() []string {
		out := append([]string(nil), seen...)
		sort.Strings(out)
		seen = seen[:0]
		return out
	}
	goal := parser.MustParseGoal("hot(s1)", 1000)
	for call, wantHits := range []int64{0, 1} {
		res, err := e.Prove(goal, d)
		if err != nil || !res.Success || res.Stats.MemoHits != wantHits {
			t.Fatalf("call %d: %+v, %v", call, res, err)
		}
		if d.ReadHook() == nil {
			t.Fatalf("call %d left no read hook installed", call)
		}
	}
	_ = observed()
	if _, err := e.Prove(goal, d); err != nil {
		t.Fatal(err)
	}
	hit := observed()
	e.memo.store = NewMemoStore(0) // forget the entry: the next call fills
	if _, err := e.Prove(goal, d); err != nil {
		t.Fatal(err)
	}
	fill := observed()
	if fmt.Sprint(hit) != fmt.Sprint(fill) || len(hit) != 3 {
		t.Fatalf("a hit observed %v, the fill %v: want the same three reads", hit, fill)
	}
}

// TestMemoFailedFillStoresNothing: a fill cut short by the step budget
// stores no entry and puts the installed hook back; the same call with
// budget to spare then fills.
func TestMemoFailedFillStoresNothing(t *testing.T) {
	prog := parser.MustParse(reachChainSrc)
	d := freshDB(t, prog)
	store := NewMemoStore(0)
	opts := DefaultOptions()
	opts.Memo = &MemoOptions{Mode: "all", Store: store}
	tight := opts
	tight.MaxSteps = 12
	calls := 0
	d.SetReadHook(func(db.ReadKind, string, int, db.Key128, uint64) { calls++ })
	goal := parser.MustParseGoal("reach(n0, Y)", 1000)
	if _, _, err := New(prog, tight).Solutions(goal, d, 0); !errors.Is(err, ErrBudget) {
		t.Fatalf("12-step search: %v, want ErrBudget", err)
	}
	if _, n := store.Usage(); n != 0 {
		t.Errorf("%d entries stored by fills that ran out of budget", n)
	}
	before := calls
	d.Contains("edge", []term.Term{term.NewSym("n0"), term.NewSym("n1")})
	if calls != before+1 {
		t.Errorf("installed hook saw %d reads after the failed fill, want 1: it was not put back", calls-before)
	}
	if st := memoCall(t, New(prog, opts), d, "reach(n0, Y)"); st.MemoMisses == 0 {
		t.Fatalf("call with budget to spare: %+v", st)
	}
	if _, n := store.Usage(); n == 0 {
		t.Error("nothing stored by the fill that finished")
	}
}

// TestMemoFillOwnsItsFailureTable: a failure memoized before the fill, for
// a residual the fill reaches too, must not stand in for the fill's reads.
// cold/1 and hot/1 have the same body; with only hot tabled, check(s2)
// fails through cold first and then fills hot(s2).
func TestMemoFillOwnsItsFailureTable(t *testing.T) {
	const src = memoHotProg + `
cold(S) :- sample_reading(S, R), reading(R, V), V > 900.
check(S) :- cold(S).
check(S) :- hot(S).
`
	e, d := memoSetup(t, src, &MemoOptions{Mode: "hot"})
	memoCall(t, e, d, "check(s2)")
	entry := memoEntryOf(t, e, d, "hot(s2)")
	if entry == nil {
		t.Fatal("no entry stored for hot(s2)")
	}
	want := []string{"1:reading/2[r3]", "1:sample_reading/2[s2]"}
	if got := depNames(entry); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("determining set %v, want %v", got, want)
	}
	d.Insert("reading", []term.Term{term.NewSym("r3"), term.NewInt(999)})
	d.ResetTrail()
	memoCall(t, e, d, "check(s2)")
}

// TestMemoBytesIncludeDeps: the store's byte accounting charges an entry
// for its determining set.
func TestMemoBytesIncludeDeps(t *testing.T) {
	e, d := memoSetup(t, memoHotProg, nil)
	memoCall(t, e, d, "hot(s1)")
	entry := memoEntryOf(t, e, d, "hot(s1)")
	want := int64(len(entry.key)) + int64(len(entry.answers))*memoSlotBytes + 3*memoDepBytes + 128
	if bytes, _ := e.memo.store.Usage(); bytes != want || entry.bytes != want {
		t.Errorf("store holds %d bytes, entry %d: want %d (3 observations at %d each)", bytes, entry.bytes, want, memoDepBytes)
	}
	if unsafe.Sizeof(memoDep{}) != memoDepBytes {
		t.Errorf("memoDepBytes = %d, a memoDep is %d bytes", memoDepBytes, unsafe.Sizeof(memoDep{}))
	}
}
