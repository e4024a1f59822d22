// Package db implements the database substrate of the Transaction Datalog
// engine: sets of ground tuples grouped into relations, with
//
//   - set semantics for insertion and deletion, as in the paper (inserting a
//     present tuple and deleting an absent one succeed without effect);
//   - an undo log giving O(1) marking and O(changes) rollback, which the
//     proof-search engine uses to explore alternative execution paths and to
//     implement transactional abort;
//   - optional first-argument hash indexes for selective queries; and
//   - an incrementally maintained 128-bit fingerprint used by tabling to
//     recognize previously seen database states.
//
// Tuples are keyed by compact binary keys built from interned term codes
// (term.AppendKey): 8 bytes per argument, no string construction. Presence
// checks, no-op updates, and ground scans allocate nothing — see
// alloc_test.go for the enforced ceilings. A first-argument index bucket
// keeps its rows in the deterministic scan order, as one slice that Scan
// hands out as its candidate set and a mutation copies if it was handed
// out, so a bound-first-argument scan never sorts. A whole relation caches
// its sorted scan order and invalidates it on mutation, so repeated full
// scans of a stable relation sort once per mutation epoch.
package db

import (
	"encoding/binary"
	"fmt"
	"iter"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/term"
)

// DB is a mutable database: a finite set of ground atoms. The zero value is
// not usable; call New.
type DB struct {
	rels     map[relID]*relation
	trail    []change
	size     int
	hashLo   uint64
	hashHi   uint64
	useIndex bool
	readHook ReadHook

	// loading is set while load fills the DB: bucket inserts append
	// unsorted, and load sorts every bucket once at the end.
	loading bool

	// keyBuf is scratch for building binary tuple keys. It is reused across
	// calls; no method keeps a reference to it past the point where control
	// can re-enter the DB (Scan yields, hooks), so re-entrant use is safe.
	keyBuf []byte

	// netSeen and netLive are DeltaSince's scratch: the tuples with a
	// surviving change so far, and the trail positions of those changes.
	// Both are left empty between calls and only keep their storage.
	netSeen map[netKey]int32
	netLive []int32

	// Operation tallies for observability. Plain int64s: a DB is owned by a
	// single goroutine (each server session runs on its own replica), so
	// counting costs one increment, not an atomic RMW, on the zero-alloc
	// paths guarded by alloc_test.go.
	cnt Counters
}

// Counters is a snapshot of a DB's cumulative operation tallies.
type Counters struct {
	// Lookups counts ground point lookups: Contains calls, fully ground
	// Scans, and the presence checks implicit in Insert/Delete.
	Lookups int64
	// IndexHits counts Scans served from a first-argument index bucket.
	IndexHits int64
	// Scans counts Scans that had to walk a whole relation.
	Scans int64
	// OrderRebuilds counts rebuilds of a relation's cached scan order: the
	// sort a full scan pays once per mutation epoch. A bound-first-argument
	// scan rebuilds nothing, because its bucket is kept in scan order.
	OrderRebuilds int64
}

// Counters returns the DB's cumulative operation tallies.
func (d *DB) Counters() Counters { return d.cnt }

// relID identifies a relation. A struct key: the per-operation Sprintf a
// string key would cost is exactly the kind of hot-path allocation this
// package now refuses to pay.
type relID struct {
	pred  string
	arity int
}

// ReadKind classifies one read observation reported to a ReadHook, from
// finest to coarsest granularity.
type ReadKind uint8

// Read observation kinds.
const (
	// ReadKey: the presence or absence of a single tuple key was observed
	// (a ground query, or the implicit presence check of an insert/delete
	// under set semantics).
	ReadKey ReadKind = iota
	// ReadPrefix: every tuple whose first argument has the given key was
	// observed (an index-assisted scan).
	ReadPrefix
	// ReadRel: the whole relation pred/arity was observed (a full scan).
	ReadRel
	// ReadPred: the predicate at every arity was observed (empty.p).
	ReadPred
)

// Key128 is a 128-bit conflict key: the fingerprint of a tuple, of a
// (relation, first argument) prefix, of a relation, or of a predicate at
// every arity. The four are nested prefixes of one FNV stream over
// (pred, arity, argument codes) — the stream the DB fingerprint is built
// from — so equal tuples always carry equal keys, and a reader's prefix,
// relation and predicate keys equal the ones derived from any tuple below
// them. Distinct tuples may collide (2^-128 per pair), which transactional
// callers must treat as a possible false conflict, never as identity. The
// argument codes are interned within this process (term.Code), so keys are
// meaningful only inside it: bytes that outlive the process use term.KeyOf.
type Key128 [2]uint64

// ReadHook observes the read dependencies of elementary operations:
// queries, emptiness tests, and the presence checks implicit in set-semantic
// updates. Transaction machinery (internal/server) uses it to build the
// read set that optimistic commit validation checks against concurrent
// writers. The hook fires on every explored execution path, so recorded
// read sets over-approximate the witness path — a sound direction for
// conflict detection. key is the fingerprint of what was observed at the
// kind's granularity (matching Op.ConflictKeys): the tuple for ReadKey, the
// (relation, first argument) prefix for ReadPrefix, the relation for
// ReadRel, the predicate for ReadPred. No string is built for it. first is
// the ground code (term.Code) of the tuple's first argument for
// ReadKey/ReadPrefix observations with arity > 0, and 0 otherwise — codes
// are never 0, so 0 unambiguously means "no first argument". arity is the
// observed relation's arity (0 for ReadPred, which observes every arity);
// (kind, pred, arity, first) name the region of the database the
// observation covers, which RegionFingerprint fingerprints.
type ReadHook func(kind ReadKind, pred string, arity int, key Key128, first uint64)

// SetReadHook installs (or, with nil, removes) the read observation hook.
func (d *DB) SetReadHook(h ReadHook) { d.readHook = h }

// ReadHook returns the installed read observation hook (nil when none), so
// a caller can tee it: install its own hook that records and forwards, and
// put this one back afterwards.
func (d *DB) ReadHook() ReadHook { return d.readHook }

// firstCode returns the ground code of a row's first argument, or 0 for a
// zero-arity row (codes are tagged in their low bits and are never 0).
func firstCode(row []term.Term) uint64 {
	if len(row) == 0 {
		return 0
	}
	return row[0].Code()
}

// trow is one stored tuple: the row plus its own binary key, kept so that
// deletion and undo never rebuild or re-allocate the key.
type trow struct {
	key string
	row []term.Term
}

// relation stores the tuples of one predicate/arity pair.
type relation struct {
	pred  string
	arity int
	rows  map[string]trow
	// index maps the code of the first argument to its bucket. nil when
	// indexing is disabled or arity is below 2: a unary relation's bucket
	// would never be read — a probe with the argument bound is ground and
	// goes through rows, one with it unbound scans the relation.
	index map[uint64]*ibucket
	// order is the cached sorted snapshot of rows used by a full Scan; nil
	// when stale (invalidated by every mutation). It is never mutated in
	// place, so a Clone shares it.
	order [][]term.Term
	// free recycles the last emptied index bucket. Delete-then-reinsert
	// churn on a single-row bucket (the transactional update idiom) would
	// otherwise allocate a bucket on every round trip.
	free *ibucket
	// seedLo/seedHi are the fingerprint prefix hashes of (pred, arity),
	// computed once so per-tuple hashing only folds the argument codes.
	seedLo uint64
	seedHi uint64
	// version counts mutations of this relation (monotone within one DB;
	// NOT comparable across replicas — each counts its own churn).
	version uint64
	// fpLo/fpHi are the relation's own 128-bit content fingerprint, the
	// per-relation slice of the DB fingerprint. XOR-maintained from the
	// same tuple hashes, so two replicas holding the same tuples agree on
	// it regardless of how they got there — the property snapshot-
	// versioned memo tables key on.
	fpLo uint64
	fpHi uint64
}

// ibucket is one first-argument index bucket: its rows in sortRows order,
// and its own slice of the relation's content fingerprint (the XOR of its
// rows' tuple hashes, so an emptied bucket is back at {0, 0}). Scan hands
// rows out as its candidate set and Clone gives it to the copy, each
// marking it shared; a mutation of a shared slice copies it first, so a
// slice once handed out never changes.
type ibucket struct {
	rows   [][]term.Term
	shared bool
	fpLo   uint64
	fpHi   uint64
}

// search returns the position of row in the bucket, or the position it
// would take, and whether it is there.
func (b *ibucket) search(row []term.Term) (int, bool) {
	return slices.BinarySearchFunc(b.rows, row, compareRows)
}

// insert puts row, which the bucket does not hold, at its sorted position.
func (b *ibucket) insert(row []term.Term) {
	i, _ := b.search(row)
	if !b.shared {
		b.rows = slices.Insert(b.rows, i, row)
		return
	}
	rows := make([][]term.Term, len(b.rows)+1)
	copy(rows, b.rows[:i])
	rows[i] = row
	copy(rows[i+1:], b.rows[i:])
	b.rows, b.shared = rows, false
}

// remove takes out row, which the bucket holds.
func (b *ibucket) remove(row []term.Term) {
	i, ok := b.search(row)
	if !ok { // only while loading, when the bucket is not yet sorted
		i = slices.IndexFunc(b.rows, func(r []term.Term) bool { return compareRows(r, row) == 0 })
	}
	if !b.shared {
		b.rows = slices.Delete(b.rows, i, i+1)
		return
	}
	// Keep the freed slot: the transactional update idiom re-inserts next.
	rows := make([][]term.Term, len(b.rows)-1, len(b.rows))
	copy(rows, b.rows[:i])
	copy(rows[i:], b.rows[i+1:])
	b.rows, b.shared = rows, false
}

// change is one undo-log entry.
type change struct {
	rel    *relation
	key    string
	row    []term.Term
	insert bool // true if the change was an insertion (undo deletes)
}

// Option configures a DB.
type Option func(*DB)

// WithoutIndex disables first-argument indexes (for the A3 ablation).
func WithoutIndex() Option {
	return func(d *DB) { d.useIndex = false }
}

// New returns an empty database.
func New(opts ...Option) *DB {
	d := &DB{rels: make(map[relID]*relation), useIndex: true}
	for _, o := range opts {
		o(d)
	}
	return d
}

// FromFacts returns a database holding the given ground atoms.
func FromFacts(facts []term.Atom, opts ...Option) (*DB, error) {
	for _, f := range facts {
		if !f.IsGround() {
			return nil, fmt.Errorf("db: fact %s is not ground", f)
		}
	}
	d := New(opts...)
	d.load(func() {
		for _, f := range facts {
			d.Insert(f.Pred, f.Args)
		}
	})
	d.ResetTrail()
	return d, nil
}

// load runs fill, which may insert but should not scan, with bucket inserts
// appending unsorted, and then sorts every bucket once. A bulk load in
// arbitrary order (a trie walk, a snapshot file) so costs O(n log n), where
// keeping a bucket of k rows sorted as it grows moves O(k²) rows.
func (d *DB) load(fill func()) {
	d.loading = true
	fill()
	d.loading = false
	for _, r := range d.rels {
		for _, b := range r.index {
			sortRows(b.rows)
		}
	}
}

func (d *DB) rel(pred string, arity int, create bool) *relation {
	k := relID{pred: pred, arity: arity}
	r := d.rels[k]
	if r == nil && create {
		r = &relation{pred: pred, arity: arity, rows: make(map[string]trow)}
		r.seedLo, r.seedHi = relSeed(pred, arity)
		if d.useIndex && arity > 1 {
			r.index = make(map[uint64]*ibucket)
		}
		d.rels[k] = r
	}
	return r
}

// Fingerprint hashing: FNV-1a folded inline over (pred, arity, argument
// codes), in two independently seeded streams for 128 bits. No hash.Hash
// objects, no key strings — pure arithmetic on the hot path.
const (
	fnvPrime   = 1099511628211
	fnvOffset  = 14695981039346656037
	fnvOffset2 = 0x9e3779b97f4a7c15 // independent second stream seed
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvU64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// predSeed hashes the predicate name into both fingerprint streams.
func predSeed(pred string) (uint64, uint64) {
	lo, hi := uint64(fnvOffset), uint64(fnvOffset2)
	for i := 0; i < len(pred); i++ {
		lo = fnvByte(lo, pred[i])
		hi = fnvByte(hi, pred[i])
	}
	return lo, hi
}

// foldArity folds a relation's arity onto the predicate seeds.
func foldArity(lo, hi uint64, arity int) (uint64, uint64) {
	return fnvU64(lo, uint64(arity)), fnvU64(hi, uint64(arity)+1)
}

// relSeed hashes the relation identity into both fingerprint streams.
func relSeed(pred string, arity int) (uint64, uint64) {
	lo, hi := predSeed(pred)
	return foldArity(lo, hi, arity)
}

// foldCode folds one argument code onto both streams.
func foldCode(lo, hi, c uint64) (uint64, uint64) {
	return fnvU64(lo, c), fnvU64(hi, c^0xa5a5a5a5a5a5a5a5)
}

// tupleHashFrom folds the row's term codes onto the relation seeds.
func tupleHashFrom(seedLo, seedHi uint64, row []term.Term) (uint64, uint64) {
	lo, hi := seedLo, seedHi
	for _, t := range row {
		lo, hi = foldCode(lo, hi, t.Code())
	}
	return lo, hi
}

// seedOf returns relSeed(pred, arity), from the relation's cache when r is
// the (possibly nil) relation pred/arity.
func seedOf(r *relation, pred string, arity int) (uint64, uint64) {
	if r != nil {
		return r.seedLo, r.seedHi
	}
	return relSeed(pred, arity)
}

// observeKey reports the ReadKey observation of the ground tuple pred(row).
func (d *DB) observeKey(r *relation, pred string, row []term.Term) {
	lo, hi := seedOf(r, pred, len(row))
	lo, hi = tupleHashFrom(lo, hi, row)
	d.readHook(ReadKey, pred, len(row), Key128{lo, hi}, firstCode(row))
}

// tupleHash returns the two fingerprint contributions of one tuple (the
// non-seeded entry point, used by FrozenDB).
func tupleHash(pred string, arity int, row []term.Term) (uint64, uint64) {
	lo, hi := relSeed(pred, arity)
	return tupleHashFrom(lo, hi, row)
}

// Size returns the total number of tuples.
func (d *DB) Size() int { return d.size }

// Count returns the number of tuples in pred/arity.
func (d *DB) Count(pred string, arity int) int {
	r := d.rel(pred, arity, false)
	if r == nil {
		return 0
	}
	return len(r.rows)
}

// IsEmpty reports whether the relation named pred is empty at every arity.
// This implements the elementary test empty.p.
func (d *DB) IsEmpty(pred string) bool {
	if d.readHook != nil {
		lo, hi := predSeed(pred)
		d.readHook(ReadPred, pred, 0, Key128{lo, hi}, 0)
	}
	for _, r := range d.rels {
		if r.pred == pred && len(r.rows) > 0 {
			return false
		}
	}
	return true
}

// Contains reports whether the ground tuple pred(row) is present.
func (d *DB) Contains(pred string, row []term.Term) bool {
	d.cnt.Lookups++
	kb := term.AppendKey(d.keyBuf[:0], row)
	d.keyBuf = kb
	r := d.rel(pred, len(row), false)
	if d.readHook != nil {
		d.observeKey(r, pred, row)
	}
	if r == nil {
		return false
	}
	_, ok := r.rows[string(kb)] // compiled to an allocation-free lookup
	return ok
}

// Insert adds pred(row); row must be ground. It reports whether the database
// changed (false when the tuple was already present).
func (d *DB) Insert(pred string, row []term.Term) bool {
	d.cnt.Lookups++
	r := d.rel(pred, len(row), true)
	kb := term.AppendKey(d.keyBuf[:0], row)
	d.keyBuf = kb
	if d.readHook != nil {
		// Set semantics make every update observe its tuple's presence.
		d.observeKey(r, pred, row)
	}
	if _, ok := r.rows[string(kb)]; ok {
		return false
	}
	key := string(kb) // materialized once, owned by the stored row
	stored := make([]term.Term, len(row))
	copy(stored, row)
	d.addRow(r, key, stored)
	d.trail = append(d.trail, change{rel: r, key: key, row: stored, insert: true})
	return true
}

// Delete removes pred(row); row must be ground. It reports whether the
// database changed (false when the tuple was absent).
func (d *DB) Delete(pred string, row []term.Term) bool {
	d.cnt.Lookups++
	kb := term.AppendKey(d.keyBuf[:0], row)
	d.keyBuf = kb
	r := d.rel(pred, len(row), false)
	if d.readHook != nil {
		d.observeKey(r, pred, row)
	}
	if r == nil {
		return false
	}
	tr, ok := r.rows[string(kb)]
	if !ok {
		return false
	}
	d.removeRow(r, tr.key, tr.row)
	d.trail = append(d.trail, change{rel: r, key: tr.key, row: tr.row, insert: false})
	return true
}

func (d *DB) removeRow(r *relation, key string, stored []term.Term) {
	lo, hi := tupleHashFrom(r.seedLo, r.seedHi, stored)
	delete(r.rows, key)
	r.order = nil
	if r.index != nil {
		c := stored[0].Code()
		if b := r.index[c]; b != nil {
			b.remove(stored)
			b.fpLo ^= lo
			b.fpHi ^= hi
			if len(b.rows) == 0 {
				delete(r.index, c)
				r.free = b
			}
		}
	}
	d.size--
	d.hashLo ^= lo
	d.hashHi ^= hi
	r.version++
	r.fpLo ^= lo
	r.fpHi ^= hi
}

func (d *DB) addRow(r *relation, key string, stored []term.Term) {
	lo, hi := tupleHashFrom(r.seedLo, r.seedHi, stored)
	r.rows[key] = trow{key: key, row: stored}
	r.order = nil
	if r.index != nil {
		c := stored[0].Code()
		b := r.index[c]
		if b == nil {
			if b = r.free; b != nil {
				r.free = nil
			} else {
				b = &ibucket{}
			}
			r.index[c] = b
		}
		if d.loading {
			b.rows = append(b.rows, stored)
		} else {
			b.insert(stored)
		}
		b.fpLo ^= lo
		b.fpHi ^= hi
	}
	d.size++
	d.hashLo ^= lo
	d.hashHi ^= hi
	r.version++
	r.fpLo ^= lo
	r.fpHi ^= hi
}

// Mark returns the current undo-log position.
func (d *DB) Mark() int { return len(d.trail) }

// Undo rolls the database back to a previous Mark.
func (d *DB) Undo(mark int) {
	for i := len(d.trail) - 1; i >= mark; i-- {
		c := d.trail[i]
		if c.insert {
			d.removeRow(c.rel, c.key, c.row)
		} else {
			d.addRow(c.rel, c.key, c.row)
		}
	}
	d.trail = d.trail[:mark]
}

// trailKeepMax bounds the undo-trail storage (in entries, 56 B each) a DB
// keeps across ResetTrail. Transactions reuse the storage; a bulk load's —
// the server's head is built by one, a boot-time install or a recovery, and
// then lives as long as the server does — is given back.
const trailKeepMax = 4096

// ResetTrail discards undo history, committing all changes so far. Undo
// marks taken earlier become invalid.
func (d *DB) ResetTrail() {
	if cap(d.trail) > trailKeepMax {
		d.trail = nil
		return
	}
	d.trail = d.trail[:0]
}

// TrailLen returns the number of pending undo entries (for tests/metrics).
func (d *DB) TrailLen() int { return len(d.trail) }

// Fingerprint returns a 128-bit content fingerprint of the current state,
// independent of insertion order. Used as a tabling key.
func (d *DB) Fingerprint() [2]uint64 { return [2]uint64{d.hashLo, d.hashHi} }

// RelVersion returns the mutation counter of pred/arity: bumped on every
// addRow/removeRow (including undo replay), monotone within this DB.
// Counters are NOT comparable across replicas — each DB counts its own
// churn — so cross-DB staleness checks must use RelFingerprint instead.
// A relation never touched reports 0.
func (d *DB) RelVersion(pred string, arity int) uint64 {
	if r := d.rel(pred, arity, false); r != nil {
		return r.version
	}
	return 0
}

// RelFingerprint returns the 128-bit content fingerprint of pred/arity —
// the relation's slice of the whole-DB Fingerprint. It is a pure function
// of the relation's tuple set: replicas holding the same tuples agree on
// it no matter how they were built, and rolling mutations back restores
// it. A missing relation fingerprints like an empty one ({0, 0}).
func (d *DB) RelFingerprint(pred string, arity int) [2]uint64 {
	if r := d.rel(pred, arity, false); r != nil {
		return [2]uint64{r.fpLo, r.fpHi}
	}
	return [2]uint64{}
}

// PredFingerprint returns the combined content fingerprint of pred at
// every arity — the state the emptiness test empty.p depends on. The
// per-relation fingerprints XOR, so the result is order-independent and
// exact.
func (d *DB) PredFingerprint(pred string) [2]uint64 {
	var lo, hi uint64
	for _, r := range d.rels {
		if r.pred == pred {
			lo ^= r.fpLo
			hi ^= r.fpHi
		}
	}
	return [2]uint64{lo, hi}
}

// RelKey returns the conflict key of the relation pred/arity: what a
// ReadRel observation of it carries and Op.ConflictKeys reports as rel.
func RelKey(pred string, arity int) Key128 {
	lo, hi := relSeed(pred, arity)
	return Key128{lo, hi}
}

// RegionFingerprint returns the content fingerprint of the region a read
// observation (kind, pred, arity, first) covers, at the finest granularity
// the DB maintains: a ReadPred observation is answered by PredFingerprint,
// a ReadRel one by RelFingerprint, and a ReadKey or ReadPrefix one by the
// first-argument bucket of first — for a unary relation, whose one tuple
// with that argument is the whole bucket, by that tuple's presence. Where
// there is no bucket to ask (arity 0, or WithoutIndex) the relation
// fingerprint answers. The region always contains every tuple the
// observation depended on, and the result is a pure function of the tuples
// in it: equal fingerprints on two databases mean (up to a 2^-128
// collision) equal region contents, however each was built, and an empty or
// missing region is {0, 0}. No allocation.
func (d *DB) RegionFingerprint(kind ReadKind, pred string, arity int, first uint64) [2]uint64 {
	if kind == ReadPred {
		return d.PredFingerprint(pred)
	}
	r := d.rel(pred, arity, false)
	if r == nil {
		return [2]uint64{}
	}
	switch {
	case kind == ReadRel || arity == 0 || (arity > 1 && r.index == nil):
		return [2]uint64{r.fpLo, r.fpHi}
	case arity == 1:
		kb := term.AppendCode(d.keyBuf[:0], first)
		d.keyBuf = kb
		if _, ok := r.rows[string(kb)]; !ok {
			return [2]uint64{}
		}
		lo, hi := foldCode(r.seedLo, r.seedHi, first)
		return [2]uint64{lo, hi}
	}
	if b := r.index[first]; b != nil {
		return [2]uint64{b.fpLo, b.fpHi}
	}
	return [2]uint64{}
}

// snapshot returns the relation's rows in sortRows order, cached until the
// next mutation. The returned slice is never mutated in place: mutations
// drop the cache, so an iteration holding an old snapshot keeps its fixed
// candidate set.
func (r *relation) snapshot() [][]term.Term {
	if r.order != nil {
		return r.order
	}
	out := make([][]term.Term, 0, len(r.rows))
	for _, tr := range r.rows {
		out = append(out, tr.row)
	}
	sortRows(out)
	r.order = out
	return out
}

// compareRows compares two rows of one relation by term comparison,
// argument by argument: the deterministic scan and print order of the
// package.
func compareRows(a, b []term.Term) int {
	for k := range a {
		if c := a[k].Compare(b[k]); c != 0 {
			return c
		}
	}
	return 0
}

// sortRows sorts rows into compareRows order. Rows of one relation are
// distinct, so the order is total and the result deterministic.
func sortRows(rows [][]term.Term) { slices.SortFunc(rows, compareRows) }

// Scan calls yield for every tuple of pred/arity that unifies with args
// under env, with the unifying bindings in effect during the call; bindings
// are undone after each yield that returns true. Iteration stops early when
// yield returns false, in which case the current bindings are kept (the
// engine uses this to preserve witness state on a cut). Scan reports whether
// iteration ran to completion.
//
// The set of candidate tuples is fixed when Scan is called: updates
// performed inside yield do not affect which tuples are visited. This gives
// queries snapshot behaviour within a single elementary step.
func (d *DB) Scan(pred string, args []term.Term, env *term.Env, yield func() bool) bool {
	// One pass over the arguments: detect groundness and, while everything
	// is ground so far, accumulate the binary lookup key.
	kb := d.keyBuf[:0]
	ground := true
	for _, a := range args {
		w := env.Walk(a)
		if w.IsVar() {
			ground = false
			break
		}
		kb = term.AppendCode(kb, w.Code())
	}
	d.keyBuf = kb

	r := d.rel(pred, len(args), false)
	if d.readHook != nil {
		// Record the read at the granularity the lookup below uses, even
		// when the relation does not exist yet: observing absence is a read.
		// kb holds the codes of the leading ground arguments, which is all
		// the key and prefix fingerprints fold.
		lo, hi := seedOf(r, pred, len(args))
		var first uint64
		if len(kb) > 0 {
			first = binary.LittleEndian.Uint64(kb)
		}
		switch {
		case ground:
			for i := 0; i < len(kb); i += 8 {
				lo, hi = foldCode(lo, hi, binary.LittleEndian.Uint64(kb[i:]))
			}
			d.readHook(ReadKey, pred, len(args), Key128{lo, hi}, first)
		case d.useIndex && len(kb) > 0:
			lo, hi = foldCode(lo, hi, first)
			d.readHook(ReadPrefix, pred, len(args), Key128{lo, hi}, first)
		default:
			d.readHook(ReadRel, pred, len(args), Key128{lo, hi}, 0)
		}
	}
	if r == nil {
		return true
	}

	// Fully ground: single allocation-free lookup.
	if ground {
		d.cnt.Lookups++
		if _, ok := r.rows[string(kb)]; ok {
			return yield()
		}
		return true
	}

	// Choose candidates: the first-argument bucket when available and
	// selective, already in scan order and marked shared so that a
	// mutation inside yield copies it; else the whole relation through its
	// cached snapshot, so the sort happens once per mutation epoch.
	resolved := env.ResolveArgs(args)
	var candidates [][]term.Term
	if r.index != nil && !resolved[0].IsVar() {
		d.cnt.IndexHits++
		if b := r.index[resolved[0].Code()]; b != nil {
			b.shared = true
			candidates = b.rows
		}
	} else {
		d.cnt.Scans++
		if r.order == nil {
			d.cnt.OrderRebuilds++
		}
		candidates = r.snapshot()
	}
	for _, row := range candidates {
		mark := env.Mark()
		if env.UnifyArgs(resolved, row) {
			if !yield() {
				// Early stop: bindings are deliberately left in effect so
				// callers can cut a search while keeping the witness state.
				return false
			}
			env.Undo(mark)
		} else {
			env.Undo(mark)
		}
	}
	return true
}

// Tuples returns all tuples of pred/arity in deterministic order (sorted
// by term comparison, argument by argument).
func (d *DB) Tuples(pred string, arity int) [][]term.Term {
	r := d.rel(pred, arity, false)
	if r == nil {
		return nil
	}
	// Copy the cached sorted snapshot: callers may reorder the outer slice.
	return append([][]term.Term(nil), r.snapshot()...)
}

// Relations returns the pred/arity pairs present (possibly with zero rows),
// sorted by name then arity.
func (d *DB) Relations() []struct {
	Pred  string
	Arity int
} {
	out := make([]struct {
		Pred  string
		Arity int
	}, 0, len(d.rels))
	for _, r := range d.rels {
		out = append(out, struct {
			Pred  string
			Arity int
		}{r.pred, r.arity})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pred != out[j].Pred {
			return out[i].Pred < out[j].Pred
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

// Clone returns a copy with an empty undo log. Stored rows are immutable,
// so the copy shares them, each bucket's row slice copy-on-write (marked
// shared on both sides) and each relation's cached scan order. Used by the
// simulator (each run gets its own state) and by the copy-based forking
// ablation.
func (d *DB) Clone() *DB {
	out := New()
	out.useIndex = d.useIndex
	for k, r := range d.rels {
		nr := &relation{
			pred: r.pred, arity: r.arity,
			rows:   maps.Clone(r.rows),
			order:  r.order,
			seedLo: r.seedLo, seedHi: r.seedHi,
			version: r.version,
			fpLo:    r.fpLo, fpHi: r.fpHi,
		}
		if r.index != nil {
			nr.index = make(map[uint64]*ibucket, len(r.index))
			for c, b := range r.index {
				b.shared = true
				nr.index[c] = &ibucket{rows: b.rows, shared: true, fpLo: b.fpLo, fpHi: b.fpHi}
			}
		}
		out.rels[k] = nr
	}
	out.size = d.size
	out.hashLo = d.hashLo
	out.hashHi = d.hashHi
	return out
}

// Equal reports whether two databases hold exactly the same tuples.
func (d *DB) Equal(o *DB) bool {
	if d.size != o.size {
		return false
	}
	for k, r := range d.rels {
		or := o.rels[k]
		if or == nil {
			if len(r.rows) != 0 {
				return false
			}
			continue
		}
		if len(r.rows) != len(or.rows) {
			return false
		}
		for key := range r.rows {
			if _, ok := or.rows[key]; !ok {
				return false
			}
		}
	}
	for k, or := range o.rels {
		if d.rels[k] == nil && len(or.rows) != 0 {
			return false
		}
	}
	return true
}

// String renders the database as sorted facts, one per line.
func (d *DB) String() string {
	var b strings.Builder
	for _, ra := range d.Relations() {
		for _, row := range d.Tuples(ra.Pred, ra.Arity) {
			b.WriteString(term.Atom{Pred: ra.Pred, Args: row}.String())
			b.WriteString(".\n")
		}
	}
	return b.String()
}

// All ranges over the tuples of pred/arity in deterministic (sorted)
// order:
//
//	for row := range d.All("account", 2) { ... }
//
// The yielded slices are the stored rows; callers must not mutate them.
func (d *DB) All(pred string, arity int) iter.Seq[[]term.Term] {
	return func(yield func([]term.Term) bool) {
		for _, row := range d.Tuples(pred, arity) {
			if !yield(row) {
				return
			}
		}
	}
}

// AllAtoms ranges over every stored tuple as a ground atom, sorted by
// relation then tuple.
func (d *DB) AllAtoms() iter.Seq[term.Atom] {
	return func(yield func(term.Atom) bool) {
		for _, ra := range d.Relations() {
			for _, row := range d.Tuples(ra.Pred, ra.Arity) {
				if !yield(term.Atom{Pred: ra.Pred, Args: row}) {
					return
				}
			}
		}
	}
}

// Op is one effective elementary update — an undo-log entry made portable.
// Sequences of Ops are the write sets that transactional callers (the
// server's optimistic concurrency control) extract with DeltaSince,
// validate, log, and replay.
type Op struct {
	Insert bool // false = delete
	Pred   string
	Row    []term.Term

	// storeKey caches the in-memory storage key (term.AppendKey codes, valid
	// only within this process) when the op was extracted from an undo trail,
	// which already materialized it. Empty for hand-built ops. A non-empty
	// storeKey also marks Row as an immutably-stored row that Apply may
	// share instead of copying. NOT the canonical portable key — see Key.
	storeKey string
	// canon memoizes Key: a durable commit needs each op's canonical key
	// twice (frozen view, WAL record).
	canon string
}

// Key returns the canonical tuple key of the op's row (term.KeyOf) — the
// portable encoding used by the WAL and the snapshot, not the interned
// in-memory storage key.
func (o *Op) Key() string {
	if o.canon == "" {
		o.canon = term.KeyOf(o.Row)
	}
	return o.canon
}

// ConflictKeys returns the fingerprints a committed op is validated by: its
// predicate, its relation, its (relation, first argument) prefix and its
// tuple — what a ReadHook reports for a ReadPred, ReadRel, ReadPrefix and
// ReadKey observation covering the tuple. A zero-arity op has no first
// argument; its prefix is its relation key, which no prefix read carries.
func (o *Op) ConflictKeys() (pred, rel, prefix, tuple Key128) {
	lo, hi := predSeed(o.Pred)
	pred = Key128{lo, hi}
	lo, hi = foldArity(lo, hi, len(o.Row))
	rel, prefix = Key128{lo, hi}, Key128{lo, hi}
	for i, t := range o.Row {
		lo, hi = foldCode(lo, hi, t.Code())
		if i == 0 {
			prefix = Key128{lo, hi}
		}
	}
	return pred, rel, prefix, Key128{lo, hi}
}

func (o Op) String() string {
	verb := "del"
	if o.Insert {
		verb = "ins"
	}
	return verb + "." + term.Atom{Pred: o.Pred, Args: o.Row}.String()
}

// netScratchMax bounds the DeltaSince scratch a DB keeps between calls: a
// bulk load's (one LOAD of a fact file through a session replica) is
// dropped rather than pinned for the replica's lifetime.
const netScratchMax = 1024

// netKey identifies a tuple within one DB for DeltaSince.
type netKey struct {
	rel *relation
	key string
}

// DeltaSince returns the net effect of the updates recorded on the undo
// trail since mark: every tuple whose membership differs from the state at
// mark appears exactly once, as the insert or delete that makes the
// difference, in the order of those surviving updates. Backtracking has
// already removed undone entries; what is cancelled here are the pairs the
// surviving execution path itself made (del.p(a) … ins.p(a)). Under set
// semantics the effective updates of one tuple alternate, so each one
// undoes its predecessor and a tuple updated an even number of times is
// left out. Applying the result to the state at mark reproduces the current
// state; it is empty exactly when the two hold the same tuples. The one
// allocation is the returned slice.
func (d *DB) DeltaSince(mark int) []Op {
	if mark >= len(d.trail) {
		return nil
	}
	trail := d.trail[mark:]
	if d.netSeen == nil {
		d.netSeen = make(map[netKey]int32)
	}
	live := d.netLive[:0] // trail positions of surviving updates, -1 once undone
	n := 0
	for i := range trail {
		k := netKey{trail[i].rel, trail[i].key}
		if j, ok := d.netSeen[k]; ok {
			live[j] = -1
			delete(d.netSeen, k)
			n--
			continue
		}
		d.netSeen[k] = int32(len(live))
		live = append(live, int32(i))
		n++
	}
	clear(d.netSeen)
	d.netLive = live[:0]
	if len(live) > netScratchMax {
		d.netSeen, d.netLive = nil, nil
	}
	if n == 0 {
		return nil
	}
	out := make([]Op, 0, n)
	for _, i := range live {
		if i >= 0 {
			c := &trail[i]
			out = append(out, Op{Insert: c.insert, Pred: c.rel.pred, Row: c.row, storeKey: c.key})
		}
	}
	return out
}

// Apply performs ops in order (through the trail, so the batch can still be
// undone from a prior Mark). Ops carrying a cached storage key (i.e.
// extracted by DeltaSince) take an allocation-free path: the stored row and
// its key are shared, not copied — stored rows are immutable everywhere, so
// sharing them across replicas is safe. This is the replica catch-up hot
// path: with N concurrent committers every commit replays the other N-1
// write sets.
func (d *DB) Apply(ops []Op) {
	for i := range ops {
		d.ApplyOne(&ops[i])
	}
}

// ApplyOne performs a single op through the trail, reporting whether the
// database changed (set semantics make repeats no-ops).
func (d *DB) ApplyOne(o *Op) bool {
	if o.storeKey == "" {
		if o.Insert {
			return d.Insert(o.Pred, o.Row)
		}
		return d.Delete(o.Pred, o.Row)
	}
	d.cnt.Lookups++
	if o.Insert {
		r := d.rel(o.Pred, len(o.Row), true)
		if _, ok := r.rows[o.storeKey]; ok {
			return false
		}
		d.addRow(r, o.storeKey, o.Row)
		d.trail = append(d.trail, change{rel: r, key: o.storeKey, row: o.Row, insert: true})
		return true
	}
	r := d.rel(o.Pred, len(o.Row), false)
	if r == nil {
		return false
	}
	tr, ok := r.rows[o.storeKey]
	if !ok {
		return false
	}
	d.removeRow(r, tr.key, tr.row)
	d.trail = append(d.trail, change{rel: r, key: tr.key, row: tr.row, insert: false})
	return true
}

// Atoms returns every tuple as a ground atom, sorted.
func (d *DB) Atoms() []term.Atom {
	var out []term.Atom
	for _, ra := range d.Relations() {
		for _, row := range d.Tuples(ra.Pred, ra.Arity) {
			out = append(out, term.Atom{Pred: ra.Pred, Args: row})
		}
	}
	return out
}
