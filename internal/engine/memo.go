package engine

import (
	"container/list"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/term"
)

// Tabled evaluation: snapshot-versioned memo tables for derived predicates.
//
// A call to a tabling-eligible derived predicate (update-free,
// hypothetical-free, non-'|' recursion — the certificate
// internal/analysis/plan.go computes) is a pure query over the current
// database state: its answer multiset depends only on the program and on
// the contents of the predicate's base-relation support set. Such a call
// can be answered from a memo table instead of re-running proof search.
//
// The memo key is (program, predicate, call pattern): the 128-bit program
// content hash — one MemoStore may serve sessions that loaded different
// programs — the length-prefixed predicate name, and one 8-byte code per
// argument: ground arguments use term.Code (low-3-bit tags 1..4), free
// arguments use memoTagVar (6) with the variable's first-occurrence index
// among the call's distinct free variables, so p(X,X) and p(X,Y) key
// differently. FuzzMemoKey proves this encoding injective.
//
// Invalidation is snapshot-versioned with no protocol: each entry stores
// the 128-bit fold of the per-relation content fingerprints of the
// predicate's support set (PredPlan.Support) at fill time. A lookup
// recomputes the fold against its own database — session snapshot
// replicas, ASOF-pinned reads, and the live store each fold their own
// relation fingerprints — and a mismatch is a miss that drops the stale
// entry. Relation fingerprints are pure functions of tuple sets
// (db.RelFingerprint), so replicas holding the same data share entries and
// rolling a mutation back restores hits.
//
// An answer is the projection of one successful execution onto the call's
// distinct free variables: per variable a ground witness term, an alias to
// an earlier variable (the body unified two call variables without
// grounding them), or "left unbound". Duplicate answers are preserved —
// replay emits one success per recorded execution, keeping the answer
// multiset identical to untabled search. The first call under a given key
// fills the table by exhausting the sub-search, then replays; repeat calls
// replay directly.
//
// The memo path is bypassed wherever its semantics would not hold:
// under un-isolated '|' (concTaint — a sibling's update between two
// replayed answers would be invisible), under iterative deepening
// (depthLimit — a cutoff makes the fill non-exhaustive), and under
// parallel search (shared budget / frontier collector). A same-key
// re-entrant call during a fill (recursive tabled predicate) falls through
// to ordinary rule dispatch, which records exactly the untabled answers.
// With Options.Memo nil the prove hot path pays a single nil check.

// memoTagVar is the low-3-bit tag of a free-variable slot in a memo key.
// term.Code uses tags 1..4 for ground terms and never 6, so variable slots
// cannot collide with ground arguments.
const memoTagVar uint64 = 6

// Alias markers in a memo answer slot.
const (
	memoGround  int32 = -1 // slot holds a ground witness term
	memoUnbound int32 = -2 // variable stayed unbound in this answer
)

// memoSlot is one projected variable of one answer: a ground term
// (alias == memoGround), an alias to an earlier distinct variable of the
// same call (alias >= 0), or nothing (memoUnbound).
type memoSlot struct {
	t     term.Term
	alias int32
}

// memoSlotBytes approximates the retained size of one slot (term value +
// slice overhead share) for the store's byte accounting.
const memoSlotBytes = 32

// MemoOptions configure the snapshot-versioned memo tables
// (Options.Memo). The zero Mode is "auto".
type MemoOptions struct {
	// Mode selects the tabled predicates among the tabling-eligible ones:
	// "auto" (top-K by observed profile cost), "all", "none", or a
	// comma-separated list of predicate names ("hot" or "hot/1").
	Mode string
	// TopK bounds auto mode's selection (0 means DefaultMemoTopK). With no
	// profile observations every eligible predicate is tabled.
	TopK int
	// MaxMB bounds the store's memory (0 means DefaultMemoMaxMB); least
	// recently used entries are evicted beyond it.
	MaxMB int
	// Store, when non-nil, is the (shared) memo store to use — the server
	// hands every session the same store so replicas reuse each other's
	// fills. nil gives the engine a private store.
	Store *MemoStore
	// Profile feeds auto mode: the absorbed per-predicate prover profile
	// (server PROFILE / engine ProfileSnapshot). Selection cost is
	// TimeUs × Calls.
	Profile map[string]PredProfile
}

// Memo defaults.
const (
	DefaultMemoTopK  = 8
	DefaultMemoMaxMB = 64
)

// MemoStats is a point-in-time snapshot of a MemoStore.
type MemoStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Invalidations int64 `json:"invalidations"`
	Evictions     int64 `json:"evictions"`
	Bytes         int64 `json:"bytes"`
	Entries       int64 `json:"entries"`
	// Preds holds per-predicate lookup stats, hottest (most hits) first.
	Preds []MemoPredStats `json:"preds,omitempty"`
}

// MemoPredStats is one tabled predicate's lookup record.
type MemoPredStats struct {
	Pred   string `json:"pred"`
	Hits   int64  `json:"hits"`
	Misses int64  `json:"misses"`
}

// MemoStore is an LRU-bounded, mutex-guarded memo table shared across
// engines (and goroutines): the server hands one store to every session so
// snapshot replicas of the same data reuse each other's fills. Entries are
// immutable after insertion; replay reads them outside the lock.
type MemoStore struct {
	mu       sync.Mutex
	entries  map[string]*memoEntry
	lru      *list.List // front = most recently used
	bytes    int64
	maxBytes int64
	byPred   map[string]*memoPredCounters

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	evictions     atomic.Int64
}

type memoPredCounters struct {
	hits   int64
	misses int64
}

// memoEntry is one cached call: the support-set fingerprint it was filled
// under, the answer count, and the flat count×nvars slot matrix.
type memoEntry struct {
	key     string
	pred    string
	elem    *list.Element
	fp      [2]uint64
	nvars   int
	count   int
	answers []memoSlot
	bytes   int64
}

// NewMemoStore returns an empty store bounded to maxMB megabytes
// (0 means DefaultMemoMaxMB).
func NewMemoStore(maxMB int) *MemoStore {
	if maxMB <= 0 {
		maxMB = DefaultMemoMaxMB
	}
	return &MemoStore{
		entries:  make(map[string]*memoEntry),
		lru:      list.New(),
		maxBytes: int64(maxMB) << 20,
		byPred:   make(map[string]*memoPredCounters),
	}
}

// Counters returns the store's lifetime lookup counters without building a
// full Snapshot — cheap enough for a metrics scrape path.
func (s *MemoStore) Counters() (hits, misses, invalidations, evictions int64) {
	return s.hits.Load(), s.misses.Load(), s.invalidations.Load(), s.evictions.Load()
}

// Usage returns the store's current footprint: answer bytes held and the
// number of cached call entries.
func (s *MemoStore) Usage() (bytes int64, entries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes, len(s.entries)
}

// predCounters returns the per-predicate cell, creating it. Callers hold mu.
func (s *MemoStore) predCounters(pred string) *memoPredCounters {
	pc := s.byPred[pred]
	if pc == nil {
		pc = &memoPredCounters{}
		s.byPred[pred] = pc
	}
	return pc
}

// lookup resolves key (still in its scratch buffer — the conversion in the
// map index does not allocate) against the caller's support fingerprint.
// A fingerprint mismatch drops the stale entry and reports invalidated.
func (s *MemoStore) lookup(key []byte, fp [2]uint64, pred string) (e *memoEntry, ok, invalidated bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e = s.entries[string(key)]
	if e == nil {
		s.misses.Add(1)
		s.predCounters(pred).misses++
		return nil, false, false
	}
	if e.fp != fp {
		s.drop(e)
		s.invalidations.Add(1)
		s.misses.Add(1)
		s.predCounters(pred).misses++
		return nil, false, true
	}
	s.lru.MoveToFront(e.elem)
	s.hits.Add(1)
	s.predCounters(pred).hits++
	return e, true, false
}

// insert stores a freshly filled entry, evicting least-recently-used
// entries beyond the byte bound. An entry already present under key (a
// concurrent session filled the same call first) is replaced.
func (s *MemoStore) insert(key, pred string, fp [2]uint64, nvars, count int, answers []memoSlot) {
	e := &memoEntry{
		key:     key,
		pred:    pred,
		fp:      fp,
		nvars:   nvars,
		count:   count,
		answers: answers,
		bytes:   int64(len(key)) + int64(len(answers))*memoSlotBytes + 128,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.entries[key]; old != nil {
		s.drop(old)
	}
	e.elem = s.lru.PushFront(e)
	s.entries[key] = e
	s.bytes += e.bytes
	for s.bytes > s.maxBytes && s.lru.Len() > 1 {
		victim := s.lru.Back().Value.(*memoEntry)
		s.drop(victim)
		s.evictions.Add(1)
	}
}

// drop unlinks e. Callers hold mu.
func (s *MemoStore) drop(e *memoEntry) {
	delete(s.entries, e.key)
	s.lru.Remove(e.elem)
	s.bytes -= e.bytes
}

// Snapshot returns the store's cumulative counters and per-predicate
// lookup stats, hottest first.
func (s *MemoStore) Snapshot() MemoStats {
	st := MemoStats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Invalidations: s.invalidations.Load(),
		Evictions:     s.evictions.Load(),
	}
	s.mu.Lock()
	st.Bytes = s.bytes
	st.Entries = int64(len(s.entries))
	for pred, pc := range s.byPred {
		st.Preds = append(st.Preds, MemoPredStats{Pred: pred, Hits: pc.hits, Misses: pc.misses})
	}
	s.mu.Unlock()
	sort.Slice(st.Preds, func(i, j int) bool {
		if st.Preds[i].Hits != st.Preds[j].Hits {
			return st.Preds[i].Hits > st.Preds[j].Hits
		}
		return st.Preds[i].Pred < st.Preds[j].Pred
	})
	return st
}

// supportRef is one parsed entry of a predicate's support set: a relation
// read ("name/arity") or a predicate-level read (bare "name", from
// empty.p, which observes every arity).
type supportRef struct {
	pred      string
	arity     int
	predLevel bool
}

// memoPred is one tabled predicate's compiled gating data.
type memoPred struct {
	name    string // "name/arity", the stats label
	support []supportRef
}

// engineMemo is the per-engine memo configuration: the shared store, the
// program's content hash, and the selected predicates.
type engineMemo struct {
	store          *MemoStore
	progLo, progHi uint64
	preds          map[enginePredArity]*memoPred
}

// parseSupportRef splits a PredPlan.Support entry.
func parseSupportRef(entry string) supportRef {
	if i := strings.LastIndexByte(entry, '/'); i >= 0 {
		if n, err := strconv.Atoi(entry[i+1:]); err == nil {
			return supportRef{pred: entry[:i], arity: n}
		}
	}
	return supportRef{pred: entry, predLevel: true}
}

// splitPredArity splits a "name/arity" certificate label.
func splitPredArity(s string) (string, int, bool) {
	i := strings.LastIndexByte(s, '/')
	if i < 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return "", 0, false
	}
	return s[:i], n, true
}

// progHash fingerprints the program content with the engine's usual
// dual-FNV streams. Load-time only.
func progHash(prog *ast.Program) (uint64, uint64) {
	const primeLo, primeHi = 1099511628211, 0xff51afd7ed558ccd
	lo := uint64(14695981039346656037)
	hi := uint64(0x9e3779b97f4a7c15)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			lo = (lo ^ uint64(s[i])) * primeLo
			hi = (hi ^ uint64(s[i])) * primeHi
		}
		lo = (lo ^ 0x1f) * primeLo
		hi = (hi ^ 0x1f) * primeHi
	}
	for _, r := range prog.Rules {
		mix(r.Head.String())
		mix(r.Body.String())
	}
	return lo, hi
}

// newEngineMemo compiles the memo configuration: select predicates per
// opts.Mode among the report's tabling-eligible certificates, parse their
// support sets, and bind the store. Returns nil when nothing is tabled.
func newEngineMemo(prog *ast.Program, rep *analysis.PlanReport, opts *MemoOptions) *engineMemo {
	mode := strings.TrimSpace(opts.Mode)
	if mode == "" {
		mode = "auto"
	}
	if mode == "none" {
		return nil
	}
	var eligible []analysis.PredPlan
	for _, pp := range rep.Predicates {
		if pp.TablingEligible {
			eligible = append(eligible, pp)
		}
	}
	var selected []analysis.PredPlan
	switch mode {
	case "all":
		selected = eligible
	case "auto":
		topK := opts.TopK
		if topK <= 0 {
			topK = DefaultMemoTopK
		}
		score := func(pp analysis.PredPlan) int64 {
			name, _, _ := splitPredArity(pp.Pred)
			pf := opts.Profile[name]
			return pf.TimeUs * pf.Calls
		}
		anyScore := false
		for _, pp := range eligible {
			if score(pp) > 0 {
				anyScore = true
				break
			}
		}
		if !anyScore {
			// Cold start: no observations yet, table everything eligible.
			selected = eligible
			break
		}
		ranked := append([]analysis.PredPlan(nil), eligible...)
		sort.SliceStable(ranked, func(i, j int) bool { return score(ranked[i]) > score(ranked[j]) })
		if len(ranked) > topK {
			ranked = ranked[:topK]
		}
		for _, pp := range ranked {
			if score(pp) > 0 {
				selected = append(selected, pp)
			}
		}
	default: // comma-separated predicate names
		want := make(map[string]bool)
		for _, name := range strings.Split(mode, ",") {
			if name = strings.TrimSpace(name); name != "" {
				want[name] = true
			}
		}
		for _, pp := range eligible {
			name, _, _ := splitPredArity(pp.Pred)
			if want[pp.Pred] || want[name] {
				selected = append(selected, pp)
			}
		}
	}
	if len(selected) == 0 {
		return nil
	}
	em := &engineMemo{preds: make(map[enginePredArity]*memoPred, len(selected))}
	em.progLo, em.progHi = progHash(prog)
	for _, pp := range selected {
		name, arity, ok := splitPredArity(pp.Pred)
		if !ok {
			continue
		}
		mp := &memoPred{name: pp.Pred}
		for _, entry := range pp.Support {
			mp.support = append(mp.support, parseSupportRef(entry))
		}
		em.preds[enginePredArity{pred: name, arity: arity}] = mp
	}
	em.store = opts.Store
	if em.store == nil {
		em.store = NewMemoStore(opts.MaxMB)
	}
	return em
}

// MemoStats returns a snapshot of the engine's memo store, or nil when
// tabling is off (or nothing was selected).
func (e *Engine) MemoStats() *MemoStats {
	if e.memo == nil {
		return nil
	}
	st := e.memo.store.Snapshot()
	return &st
}

// MemoTabled returns the tabled predicates ("name/arity", sorted), or nil
// when tabling is off.
func (e *Engine) MemoTabled() []string {
	if e.memo == nil {
		return nil
	}
	out := make([]string, 0, len(e.memo.preds))
	for _, mp := range e.memo.preds {
		out = append(out, mp.name)
	}
	sort.Strings(out)
	return out
}

// memoFingerprint folds the predicate's support-set relation fingerprints
// against the search's database. Relation fingerprints are pure functions
// of tuple sets, so replicas with equal data produce equal folds. The
// support list is sorted at plan time, making the sequential fold
// deterministic.
func (dv *deriv) memoFingerprint(mp *memoPred) [2]uint64 {
	const primeLo, primeHi = 1099511628211, 0xff51afd7ed558ccd
	lo := uint64(14695981039346656037)
	hi := uint64(0x9e3779b97f4a7c15)
	for _, ref := range mp.support {
		var f [2]uint64
		if ref.predLevel {
			f = dv.d.PredFingerprint(ref.pred)
		} else {
			f = dv.d.RelFingerprint(ref.pred, ref.arity)
		}
		lo = (lo ^ f[0]) * primeLo
		hi = (hi ^ f[1]) * primeHi
	}
	return [2]uint64{lo, hi}
}

// appendMemoKey encodes the call pattern of g into dst and returns the
// extended buffer plus the call's distinct free variables in
// first-occurrence order. The encoding is injective: 16 bytes of program
// hash, the length-prefixed predicate name, then one 8-byte code per
// argument (ground term code, or variable index tagged memoTagVar).
func (dv *deriv) appendMemoKey(dst []byte, g *ast.Lit, vars []term.Term) ([]byte, []term.Term) {
	em := dv.e.memo
	dst = term.AppendCode(dst, em.progLo)
	dst = term.AppendCode(dst, em.progHi)
	dst = strconv.AppendInt(dst, int64(len(g.Atom.Pred)), 10)
	dst = append(dst, ':')
	dst = append(dst, g.Atom.Pred...)
	for _, t := range g.Atom.Args {
		w := dv.env.Walk(t)
		if !w.IsVar() {
			dst = term.AppendCode(dst, w.Code())
			continue
		}
		idx := -1
		for j := range vars {
			if vars[j].VarID() == w.VarID() {
				idx = j
				break
			}
		}
		if idx < 0 {
			idx = len(vars)
			vars = append(vars, w)
		}
		dst = term.AppendCode(dst, uint64(idx)<<3|memoTagVar)
	}
	return dst, vars
}

// memoStep serves an OpCall step from the memo table. handled reports
// whether the memo path took the step (the predicate is tabled and no
// same-key fill is in flight); when handled, cont is the usual
// cut-propagation result. The first call under a key fills the table by
// exhausting the sub-search, then both paths replay the recorded answers.
func (dv *deriv) memoStep(g *ast.Lit, rebuild func(ast.Goal) ast.Goal, depth int, emit func() bool) (handled, cont bool) {
	mp := dv.e.memo.preds[enginePredArity{pred: g.Atom.Pred, arity: len(g.Atom.Args)}]
	if mp == nil {
		return false, false
	}
	// Key and distinct-variable scratch are per-step locals: a nested
	// tabled call during fill or replay runs its own memoStep.
	var vars []term.Term
	buf, vars := dv.appendMemoKey(dv.memoBuf[:0], g, vars)
	dv.memoBuf = buf[:0]
	if dv.memoFlight[string(buf)] {
		// Re-entrant call on the same key (recursive tabled predicate
		// mid-fill): fall through to ordinary rule dispatch, which
		// explores exactly the untabled semantics.
		return false, false
	}
	fp := dv.memoFingerprint(mp)
	entry, ok, invalidated := dv.e.memo.store.lookup(buf, fp, mp.name)
	if invalidated {
		dv.memoInvalid++
	}
	var memoAnn uint8
	if ok {
		dv.memoHits++
		memoAnn = MemoHit
		if dv.e.opts.Profile {
			dv.noteCall(g.Atom.Pred, 0)
		}
	} else {
		key := string(buf)
		dv.memoMisses++
		memoAnn = MemoMiss
		if dv.memoFlight == nil {
			dv.memoFlight = make(map[string]bool)
		}
		dv.memoFlight[key] = true
		// The fill is an independent, exhaustive sub-search of the bare
		// call: it must not be pruned by the enclosing derivation's
		// path-cycle entries (the outer explore of a bare-call goal holds
		// this very configuration, and pruning here would cache an empty
		// answer set). Give it a fresh path; the failure table stays
		// shared — its entries are context-free.
		savedPath := dv.path
		if savedPath != nil {
			dv.path = make(map[ckey]bool)
		}
		var answers []memoSlot
		count := 0
		fillCont := dv.explore(g, depth+1, func() bool {
			for i, v := range vars {
				w := dv.env.Walk(v)
				if !w.IsVar() {
					answers = append(answers, memoSlot{t: w, alias: memoGround})
					continue
				}
				alias := memoUnbound
				for j := 0; j < i; j++ {
					if pw := dv.env.Walk(vars[j]); pw.IsVar() && pw.VarID() == w.VarID() {
						alias = int32(j)
						break
					}
				}
				answers = append(answers, memoSlot{alias: alias})
			}
			count++
			return true // collect every execution, then backtrack
		})
		dv.path = savedPath
		delete(dv.memoFlight, key)
		if !fillCont {
			// The sub-search errored (budget, depth, runtime fault): no
			// entry is stored and the error propagates.
			return true, false
		}
		dv.e.memo.store.insert(key, mp.name, fp, len(vars), count, answers)
		entry = &memoEntry{nvars: len(vars), count: count, answers: answers}
	}
	if entry.nvars != len(vars) {
		// Defensive: an injective key cannot disagree on the variable
		// count; treat as unhandled rather than replay garbage.
		return false, false
	}
	// One budget charge for the call step itself (so a replayed failure
	// still consumes budget, matching the untabled call's accounting),
	// plus one per replayed answer.
	if !dv.budget() {
		return true, false
	}
	stride := entry.nvars
	for a := 0; a < entry.count; a++ {
		if !dv.budget() {
			return true, false
		}
		envMark := dv.env.Mark()
		okBind := true
		base := a * stride
		for i := 0; i < stride && okBind; i++ {
			slot := entry.answers[base+i]
			switch {
			case slot.alias == memoGround:
				okBind = dv.env.Unify(vars[i], slot.t)
			case slot.alias >= 0:
				okBind = dv.env.Unify(vars[i], vars[slot.alias])
			}
		}
		if !okBind {
			dv.env.Undo(envMark)
			continue
		}
		dv.pushTrace(TraceEntry{Op: TraceCall, Atom: dv.traceAtom(g.Atom), Memo: memoAnn})
		c := dv.explore(rebuild(ast.True{}), depth+1, emit)
		dv.popTrace(c)
		if !c {
			return true, false
		}
		dv.env.Undo(envMark)
	}
	return true, true
}
