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
	"repro/internal/db"
	"repro/internal/term"
)

// Tabled evaluation: memo tables for derived predicates, each entry valid
// wherever what its proof search read still reads the same.
//
// A call to a tabling-eligible derived predicate (update-free,
// hypothetical-free, non-'|' recursion — the certificate
// internal/analysis/plan.go computes) is a pure query over the current
// database state: its answer multiset depends only on the program and on
// what its proof search reads. Such a call can be answered from a memo
// table instead of re-running proof search.
//
// The memo key is (program, predicate, call pattern): the 128-bit program
// content hash — one MemoStore may serve sessions that loaded different
// programs — the length-prefixed predicate name, and one 8-byte code per
// argument: ground arguments use term.Code (low-3-bit tags 1..4), free
// arguments use memoTagVar (6) with the variable's first-occurrence index
// among the call's distinct free variables, so p(X,X) and p(X,Y) key
// differently. FuzzMemoKey proves this encoding injective.
//
// Invalidation is per entry and has no protocol. An entry stores its
// determining set: the deduplicated read observations of the exhaustive
// fill — exactly what db.ReadHook reports to a transaction's read set: a
// tuple, a (relation, first argument) bucket, a relation, a predicate at
// every arity — each with the content fingerprint of the region it covers
// (db.RegionFingerprint) at fill time. A lookup is a hit iff every region
// fingerprints the same on the caller's own database: session snapshot
// replicas, ASOF-pinned reads and the live store each validate against
// their own data. Region fingerprints are pure functions of tuple sets, so
// replicas holding the same data share entries, a write outside every
// region an entry read leaves it valid, and rolling a write back restores
// the hit. Why that is sound: a fill is a deterministic function of the
// program, the call pattern and the result of each read it makes, and
// scans are order-deterministic; equal region contents give equal reads,
// hence the same answer sequence (docs/PERF.md §12).
//
// The fill collects the set by teeing the database's installed read hook,
// so an enclosing transaction's read set still sees every read, and a
// fill nested in a fill hands its set to the enclosing one when it
// finishes. A relation observed more than memoDepCap times in one fill (or
// scanned whole) is recorded as one relation-level observation instead,
// which bounds an entry's size and its validation time. A hit replays the
// stored observations into the installed hook: a transaction that is
// answered from the table has read what the fill read, and optimistic
// validation must see that. The fill runs with its own failure table: a
// failure memoized outside it stands for reads this fill's hook never saw.
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
// The memo path is bypassed where its semantics would not hold: under
// un-isolated '|' (concTaint — a sibling's update between two replayed
// answers would be invisible). A same-key re-entrant call during a fill
// (recursive tabled predicate) falls through to ordinary rule dispatch,
// which records exactly the untabled answers.
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

// memoDep is one element of an entry's determining set: a read observation
// of the fill, as db.ReadHook reported it, and the fingerprint of the
// region it covers at fill time.
type memoDep struct {
	kind  db.ReadKind
	arity int32
	pred  string
	key   db.Key128
	first uint64
	fp    [2]uint64
}

// memoDepBytes is the size of one memoDep for the store's byte accounting.
const memoDepBytes = 64

// memoDepCap bounds the tuple- and bucket-level observations one entry
// keeps per relation; past it the relation is recorded as a whole.
const memoDepCap = 64

// String names the region the observation covers: "reading/2[r17]" for a
// tuple or bucket, "reading/2" for a relation, "reading" for a predicate.
func (dp *memoDep) String() string {
	if dp.kind == db.ReadPred {
		return dp.pred
	}
	s := dp.pred + "/" + strconv.Itoa(int(dp.arity))
	if dp.kind == db.ReadRel || dp.first == 0 {
		return s
	}
	if t, ok := term.FromCode(dp.first); ok {
		return s + "[" + t.String() + "]"
	}
	return s + "[#" + strconv.FormatUint(dp.first, 16) + "]"
}

// MemoOptions configure the memo tables (Options.Memo). The zero Mode is
// "auto".
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
	byPred   map[string]*memoPredCounters // cells are created under mu, counted atomically

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	evictions     atomic.Int64
}

type memoPredCounters struct {
	hits   atomic.Int64
	misses atomic.Int64
}

// memoEntry is one cached call: its determining set, the answer count, and
// the flat count×nvars slot matrix. Immutable once inserted.
type memoEntry struct {
	key     string
	elem    *list.Element
	deps    []memoDep
	nvars   int
	count   int
	answers []memoSlot
	bytes   int64
}

// replay reports the entry's determining set to hook, as the fill's reads
// were reported when they were made.
func (e *memoEntry) replay(hook db.ReadHook) {
	for i := range e.deps {
		dp := &e.deps[i]
		hook(dp.kind, dp.pred, int(dp.arity), dp.key, dp.first)
	}
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

// predCounters returns the per-predicate cell, creating it.
func (s *MemoStore) predCounters(pred string) *memoPredCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	pc := s.byPred[pred]
	if pc == nil {
		pc = &memoPredCounters{}
		s.byPred[pred] = pc
	}
	return pc
}

// lookup returns the entry under key (still in its scratch buffer — the
// conversion in the map index does not allocate), or nil. The caller
// validates it against its own database, outside the lock.
func (s *MemoStore) lookup(key []byte) *memoEntry {
	s.mu.Lock()
	e := s.entries[string(key)]
	if e != nil {
		s.lru.MoveToFront(e.elem)
	}
	s.mu.Unlock()
	return e
}

// invalidate drops e, which a lookup found stale, unless a fresh fill has
// already replaced it.
func (s *MemoStore) invalidate(e *memoEntry) {
	s.mu.Lock()
	if s.entries[e.key] == e {
		s.drop(e)
	}
	s.mu.Unlock()
	s.invalidations.Add(1)
}

// insert stores a freshly filled entry, evicting least-recently-used
// entries beyond the byte bound. An entry already present under its key (a
// concurrent session filled the same call first) is replaced.
func (s *MemoStore) insert(e *memoEntry) {
	e.bytes = int64(len(e.key)) + int64(len(e.answers))*memoSlotBytes + int64(len(e.deps))*memoDepBytes + 128
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.entries[e.key]; old != nil {
		s.drop(old)
	}
	e.elem = s.lru.PushFront(e)
	s.entries[e.key] = e
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
		st.Preds = append(st.Preds, MemoPredStats{Pred: pred, Hits: pc.hits.Load(), Misses: pc.misses.Load()})
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

// memoPred is one tabled predicate: its stats label and lookup counters.
type memoPred struct {
	name     string // "name/arity"
	counters *memoPredCounters
}

// engineMemo is the per-engine memo configuration: the shared store, the
// program's content hash, and the selected predicates.
type engineMemo struct {
	store          *MemoStore
	progLo, progHi uint64
	preds          map[enginePredArity]*memoPred
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
// opts.Mode among the report's tabling-eligible certificates and bind the
// store. Returns nil when nothing is tabled.
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
	em := &engineMemo{store: opts.Store, preds: make(map[enginePredArity]*memoPred, len(selected))}
	if em.store == nil {
		em.store = NewMemoStore(opts.MaxMB)
	}
	em.progLo, em.progHi = progHash(prog)
	for _, pp := range selected {
		name, arity, ok := splitPredArity(pp.Pred)
		if !ok {
			continue
		}
		em.preds[enginePredArity{pred: name, arity: arity}] = &memoPred{name: pp.Pred, counters: em.store.predCounters(pp.Pred)}
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

// memoFill is the state of one fill in progress: the determining set
// collected so far, and what the fill set aside of the enclosing search. A
// deriv keeps one per nesting depth and reuses them.
type memoFill struct {
	deps []memoDep
	rels []memoFillRel
	// failed is the fill's own failure table (nil while the failure memo
	// is off); savedPath and savedFailed are the enclosing search's tables.
	failed, savedFailed map[ckey]bool
	savedPath           map[ckey]int
}

// memoFillRel counts one relation's tuple- and bucket-level observations in
// a fill; collapsed means the relation is recorded as a whole.
type memoFillRel struct {
	pred      string
	arity     int32
	n         int32
	collapsed bool
}

// has reports whether the observation (kind, key) is already recorded.
func (f *memoFill) has(kind db.ReadKind, key db.Key128) bool {
	for i := range f.deps {
		if f.deps[i].key == key && f.deps[i].kind == kind {
			return true
		}
	}
	return false
}

// note records one read observation, deduplicated, collapsing a relation
// observed past memoDepCap (or scanned whole) to a single ReadRel. It has
// the signature of a db.ReadHook.
func (f *memoFill) note(kind db.ReadKind, pred string, arity int, key db.Key128, first uint64) {
	dep := memoDep{kind: kind, arity: int32(arity), pred: pred, key: key, first: first}
	if kind == db.ReadPred {
		if !f.has(kind, key) {
			f.deps = append(f.deps, dep)
		}
		return
	}
	var r *memoFillRel
	for i := range f.rels {
		if f.rels[i].arity == dep.arity && f.rels[i].pred == pred {
			r = &f.rels[i]
			break
		}
	}
	if r == nil {
		f.rels = append(f.rels, memoFillRel{pred: pred, arity: dep.arity})
		r = &f.rels[len(f.rels)-1]
	}
	switch {
	case r.collapsed || (kind != db.ReadRel && f.has(kind, key)):
		return
	case kind != db.ReadRel && r.n < memoDepCap:
		f.deps = append(f.deps, dep)
		r.n++
		return
	}
	r.collapsed = true
	kept := f.deps[:0]
	for _, dp := range f.deps {
		if dp.kind == db.ReadPred || dp.arity != dep.arity || dp.pred != pred {
			kept = append(kept, dp)
		}
	}
	f.deps = append(kept, memoDep{kind: db.ReadRel, arity: dep.arity, pred: pred, key: db.RelKey(pred, arity)})
}

// beginFill sets the search up for a fill: an independent, exhaustive
// sub-search of a bare call whose every read is recorded. The outermost
// fill tees the database's installed read hook; a nested one records on
// top. The fill must not be pruned by the enclosing derivation's
// path-cycle entries (the outer explore of a bare-call goal holds this very
// configuration, and pruning here would cache an empty answer set), nor by
// its failure table (a failure memoized outside the fill stands for reads
// the fill would not record): it gets a fresh path and its own failure
// table.
func (dv *deriv) beginFill() *memoFill {
	if dv.memoDepth == 0 {
		dv.memoBase = dv.d.ReadHook()
		if dv.memoTee == nil {
			dv.memoTee = dv.observeFill
		}
		dv.d.SetReadHook(dv.memoTee)
	}
	if dv.memoDepth == len(dv.memoFills) {
		dv.memoFills = append(dv.memoFills, &memoFill{})
	}
	f := dv.memoFills[dv.memoDepth]
	dv.memoDepth++
	f.deps, f.rels = f.deps[:0], f.rels[:0]
	f.savedPath, f.savedFailed = dv.path, dv.failed
	if dv.path != nil {
		dv.path = make(map[ckey]int)
	}
	if dv.failed != nil {
		if f.failed == nil {
			f.failed = make(map[ckey]bool)
		}
		clear(f.failed)
		dv.failed = f.failed
	}
	return f
}

// endFill undoes beginFill: the enclosing search gets its tables back and,
// after the outermost fill, the database its installed read hook.
func (dv *deriv) endFill(f *memoFill) {
	dv.path, dv.failed = f.savedPath, f.savedFailed
	f.savedPath, f.savedFailed = nil, nil
	dv.memoDepth--
	if dv.memoDepth == 0 {
		dv.d.SetReadHook(dv.memoBase)
		dv.memoBase = nil
	}
}

// observeFill is the read hook during a fill: the innermost fill records
// the observation and the hook that was installed before still sees it.
func (dv *deriv) observeFill(kind db.ReadKind, pred string, arity int, key db.Key128, first uint64) {
	dv.memoFills[dv.memoDepth-1].note(kind, pred, arity, key, first)
	if dv.memoBase != nil {
		dv.memoBase(kind, pred, arity, key, first)
	}
}

// memoStaleDep returns the first element of e's determining set whose
// region no longer fingerprints as it did at fill time on the search's
// database, or nil when the entry is valid here.
func (dv *deriv) memoStaleDep(e *memoEntry) *memoDep {
	for i := range e.deps {
		dp := &e.deps[i]
		if dv.d.RegionFingerprint(dp.kind, dp.pred, int(dp.arity), dp.first) != dp.fp {
			return dp
		}
	}
	return nil
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

// memoFillEntry runs the fill of the call g under key: it exhausts the
// sub-search of the bare call, recording every answer and every read, and
// returns the entry — or nil when the sub-search errored.
func (dv *deriv) memoFillEntry(g *ast.Lit, key string, vars []term.Term, depth int) *memoEntry {
	if dv.memoFlight == nil {
		dv.memoFlight = make(map[string]bool)
	}
	dv.memoFlight[key] = true
	fill := dv.beginFill()
	var answers []memoSlot
	count := 0
	cont := dv.explore(g, depth+1, func() bool {
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
	dv.endFill(fill)
	delete(dv.memoFlight, key)
	if !cont {
		return nil
	}
	// The predicate is update-free, so the database is as every read of
	// the fill saw it: fingerprint the regions now.
	deps := make([]memoDep, len(fill.deps))
	copy(deps, fill.deps)
	for i := range deps {
		dp := &deps[i]
		dp.fp = dv.d.RegionFingerprint(dp.kind, dp.pred, int(dp.arity), dp.first)
	}
	entry := &memoEntry{key: key, deps: deps, nvars: len(vars), count: count, answers: answers}
	if dv.memoDepth > 0 {
		// What this fill read, the enclosing fill read.
		entry.replay(dv.memoFills[dv.memoDepth-1].note)
	}
	return entry
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
	store := dv.e.memo.store
	entry := store.lookup(buf)
	if entry != nil {
		if stale := dv.memoStaleDep(entry); stale != nil {
			store.invalidate(entry)
			dv.memoInvalid++
			dv.memoStale = stale
			entry = nil
		}
	}
	var memoAnn uint8
	if entry != nil {
		store.hits.Add(1)
		mp.counters.hits.Add(1)
		dv.memoHits++
		memoAnn = MemoHit
		if dv.e.opts.Profile {
			dv.noteCall(g.Atom.Pred, 0)
		}
		// The caller has now read what the fill read: tell whoever is
		// listening — a transaction's read set, an enclosing fill.
		if hook := dv.d.ReadHook(); hook != nil {
			entry.replay(hook)
		}
	} else {
		store.misses.Add(1)
		mp.counters.misses.Add(1)
		dv.memoMisses++
		memoAnn = MemoMiss
		if entry = dv.memoFillEntry(g, string(buf), vars, depth); entry == nil {
			// The sub-search errored (budget, depth, runtime fault): no
			// entry is stored and the error propagates.
			return true, false
		}
		store.insert(entry)
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
