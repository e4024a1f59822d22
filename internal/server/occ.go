package server

// Optimistic concurrency control (backward validation, à la Kung-Robinson):
// a transaction records what it read while executing against its snapshot;
// at commit it is checked against the write sets of every transaction that
// committed after the snapshot was taken. Any overlap aborts the newcomer,
// which retries on a fresh snapshot.
//
// A write set is a transaction's net effect (db.DeltaSince): the tuples
// whose membership it changed, once each. Validation is therefore by value:
// a winner that deleted and re-inserted a tuple determined nothing about it
// and aborts nobody. That stays sound because every update observes its
// tuple's presence first (set semantics; the ReadKey observation in
// Insert/Delete), so a transaction's read set covers its own writes: one
// that validates has seen, for every tuple it read or wrote, the membership
// it would have seen at the head, and LSN order is a serial order. The same
// observation makes a separate write/write check redundant.
//
// Reads are recorded by the database's ReadHook at the granularity the
// lookup actually used: a single tuple key, a first-argument index bucket,
// a whole relation, or a whole predicate (empty.p). Coarser reads conflict
// with any write below them; this over-approximates the witness path's
// true dependencies, which can only cause false conflicts, never missed
// ones.
//
// A tabled call answered from the engine's memo table makes no lookup of
// its own. The engine replays the entry's determining set — the read
// observations of the proof search that filled it — into the same hook, so
// a replayed answer observes what its fill observed and the read set of a
// transaction does not depend on whether the table answered.
//
// Observations and committed writes meet as db.Key128 fingerprints derived
// from interned term codes — no key string is built on either side. Equal
// tuples always have equal keys, so a conflict is never missed; a collision
// between distinct tuples can only cost a spurious retry.

import "repro/internal/db"

// readSet accumulates one transaction's read observations.
type readSet struct {
	preds    map[db.Key128]struct{} // predicate at every arity: empty.p
	rels     map[db.Key128]struct{} // relation: full scans
	prefixes map[db.Key128]struct{} // (relation, first argument): index-bucket scans
	keys     map[db.Key128]struct{} // tuple: ground probes and updates
}

func newReadSet() *readSet {
	return &readSet{
		preds:    make(map[db.Key128]struct{}),
		rels:     make(map[db.Key128]struct{}),
		prefixes: make(map[db.Key128]struct{}),
		keys:     make(map[db.Key128]struct{}),
	}
}

// reset empties the read set for reuse, keeping the map storage. Sessions
// run one transaction at a time, so a single read set per session can be
// recycled instead of allocating four maps per attempt.
func (rs *readSet) reset() *readSet {
	clear(rs.preds)
	clear(rs.rels)
	clear(rs.prefixes)
	clear(rs.keys)
	return rs
}

// observe is the db.ReadHook target. It runs for every read of every
// explored path: a set insert of a fixed-size key, nothing built.
func (rs *readSet) observe(kind db.ReadKind, _ string, _ int, key db.Key128, _ uint64) {
	switch kind {
	case db.ReadKey:
		rs.keys[key] = struct{}{}
	case db.ReadPrefix:
		rs.prefixes[key] = struct{}{}
	case db.ReadRel:
		rs.rels[key] = struct{}{}
	case db.ReadPred:
		rs.preds[key] = struct{}{}
	}
}

func (rs *readSet) size() int {
	return len(rs.preds) + len(rs.rels) + len(rs.prefixes) + len(rs.keys)
}

// wkey is one committed write, pre-keyed for validation at every read
// granularity (db.Op.ConflictKeys).
type wkey struct {
	pred, rel, prefix, key db.Key128
}

// commitRecord is one entry of the in-memory commit log: the write set of a
// committed transaction, at a version, with pre-computed conflict keys;
// writes[i] keys ops[i]. Records are immutable once appended to the log —
// commit validation scans a snapshot of the log with the commit lock
// released.
type commitRecord struct {
	version uint64
	ops     []db.Op
	writes  []wkey
}

// newCommitRecord keys a write set for validation. The version is stamped
// when the commit is sequenced.
func newCommitRecord(ops []db.Op) commitRecord {
	rec := commitRecord{ops: ops, writes: make([]wkey, len(ops))}
	for i := range ops {
		w := &rec.writes[i]
		w.pred, w.rel, w.prefix, w.key = ops[i].ConflictKeys()
	}
	return rec
}

// conflictsWith returns the index of the first committed write in rec that
// the read set observed, or -1 when rec determined nothing the transaction
// saw.
func (rec *commitRecord) conflictsWith(rs *readSet) int {
	for i := range rec.writes {
		w := &rec.writes[i]
		if _, ok := rs.keys[w.key]; ok {
			return i
		}
		if _, ok := rs.prefixes[w.prefix]; ok {
			return i
		}
		if _, ok := rs.rels[w.rel]; ok {
			return i
		}
		if _, ok := rs.preds[w.pred]; ok {
			return i
		}
	}
	return -1
}
