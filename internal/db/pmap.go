package db

// A persistent (immutable, structurally shared) hash-array-mapped trie:
// the third database-branching strategy next to undo logs and deep clones
// (ablation A2). Forking a FrozenDB is O(1) — copy a struct — and each
// update copies only the O(log n) path to the changed leaf, sharing
// everything else with the parent version.
//
// The proof-search engine keeps the undo log (cheapest for its
// backtracking pattern); the HAMT is for version-keeping uses: snapshots
// of many search states at once, long-lived historical versions, or
// callers that want cheap value-semantics databases.

import (
	"hash/fnv"
	"math/bits"
	"sort"

	"repro/internal/term"
)

const (
	pmapBits  = 5
	pmapWidth = 1 << pmapBits // 32-way branching
	pmapMask  = pmapWidth - 1
)

func pmapHash(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32()
}

// pnode is a trie node: either a branch (bitmap + packed children), a
// single leaf, or a collision bucket (distinct keys, same full hash).
type pnode struct {
	// branch
	bitmap   uint32
	children []*pnode
	// leaf / collision
	leaves []pleaf
}

type pleaf struct {
	key string
	val []term.Term
}

func (n *pnode) isLeaf() bool { return n != nil && len(n.leaves) > 0 }

// pmGet finds key in the trie rooted at n.
func pmGet(n *pnode, hash uint32, shift uint, key string) ([]term.Term, bool) {
	for n != nil {
		if n.isLeaf() {
			for _, l := range n.leaves {
				if l.key == key {
					return l.val, true
				}
			}
			return nil, false
		}
		bit := uint32(1) << ((hash >> shift) & pmapMask)
		if n.bitmap&bit == 0 {
			return nil, false
		}
		n = n.children[popcount(n.bitmap&(bit-1))]
		shift += pmapBits
	}
	return nil, false
}

// pmSet returns a new trie with key ↦ val; added reports whether the key
// was new.
func pmSet(n *pnode, hash uint32, shift uint, key string, val []term.Term) (out *pnode, added bool) {
	if n == nil {
		return &pnode{leaves: []pleaf{{key, val}}}, true
	}
	if n.isLeaf() {
		// Same key: replace. Same hash, different key: extend collision
		// bucket. Otherwise: split into a branch.
		lHash := pmapHash(n.leaves[0].key)
		if lHash == hash {
			for i, l := range n.leaves {
				if l.key == key {
					leaves := append(append([]pleaf{}, n.leaves[:i]...), n.leaves[i+1:]...)
					leaves = append(leaves, pleaf{key, val})
					return &pnode{leaves: leaves}, false
				}
			}
			leaves := append(append([]pleaf{}, n.leaves...), pleaf{key, val})
			return &pnode{leaves: leaves}, true
		}
		branch := splitLeaf(n, lHash, shift)
		return pmSet(branch, hash, shift, key, val)
	}
	bit := uint32(1) << ((hash >> shift) & pmapMask)
	idx := popcount(n.bitmap & (bit - 1))
	if n.bitmap&bit == 0 {
		children := make([]*pnode, len(n.children)+1)
		copy(children, n.children[:idx])
		children[idx] = &pnode{leaves: []pleaf{{key, val}}}
		copy(children[idx+1:], n.children[idx:])
		return &pnode{bitmap: n.bitmap | bit, children: children}, true
	}
	child, added := pmSet(n.children[idx], hash, shift+pmapBits, key, val)
	children := make([]*pnode, len(n.children))
	copy(children, n.children)
	children[idx] = child
	return &pnode{bitmap: n.bitmap, children: children}, added
}

// splitLeaf pushes a leaf/collision node one level down into a branch.
func splitLeaf(leaf *pnode, hash uint32, shift uint) *pnode {
	bit := uint32(1) << ((hash >> shift) & pmapMask)
	return &pnode{bitmap: bit, children: []*pnode{leaf}}
}

// pmDel returns a new trie without key; removed reports whether it was
// present. Branches are left in place even when they shrink to one child
// (no re-canonicalization) — lookups stay correct and the structure stays
// simple; densities in practice make this a fine trade.
func pmDel(n *pnode, hash uint32, shift uint, key string) (out *pnode, removed bool) {
	if n == nil {
		return nil, false
	}
	if n.isLeaf() {
		for i, l := range n.leaves {
			if l.key == key {
				if len(n.leaves) == 1 {
					return nil, true
				}
				leaves := append(append([]pleaf{}, n.leaves[:i]...), n.leaves[i+1:]...)
				return &pnode{leaves: leaves}, true
			}
		}
		return n, false
	}
	bit := uint32(1) << ((hash >> shift) & pmapMask)
	if n.bitmap&bit == 0 {
		return n, false
	}
	idx := popcount(n.bitmap & (bit - 1))
	child, removed := pmDel(n.children[idx], hash, shift+pmapBits, key)
	if !removed {
		return n, false
	}
	if child == nil {
		if len(n.children) == 1 {
			return nil, true
		}
		children := make([]*pnode, len(n.children)-1)
		copy(children, n.children[:idx])
		copy(children[idx:], n.children[idx+1:])
		return &pnode{bitmap: n.bitmap &^ bit, children: children}, true
	}
	children := make([]*pnode, len(n.children))
	copy(children, n.children)
	children[idx] = child
	return &pnode{bitmap: n.bitmap, children: children}, true
}

// pmRange visits every leaf; stops early when yield returns false.
func pmRange(n *pnode, yield func(key string, val []term.Term) bool) bool {
	if n == nil {
		return true
	}
	if n.isLeaf() {
		for _, l := range n.leaves {
			if !yield(l.key, l.val) {
				return false
			}
		}
		return true
	}
	for _, c := range n.children {
		if !pmRange(c, yield) {
			return false
		}
	}
	return true
}

func popcount(x uint32) int { return bits.OnesCount32(x) }

// FrozenDB is an immutable database value: updates return new versions
// sharing structure with the old. The zero value is an empty database.
type FrozenDB struct {
	rels map[predArity2]*pnode
	size int
	lo   uint64
	hi   uint64
}

type predArity2 struct {
	pred  string
	arity int
}

// FreezeDB snapshots a mutable DB into a FrozenDB in one batch: one
// relation directory, each trie built on its own, the stored rows shared
// (they are immutable everywhere) and size and fingerprint taken from d.
// Rows go in in sorted order, so a hash-collision bucket lists its tuples in
// the same order however d was built.
func FreezeDB(d *DB) FrozenDB {
	out := FrozenDB{rels: make(map[predArity2]*pnode, len(d.rels)), size: d.size, lo: d.hashLo, hi: d.hashHi}
	for id, r := range d.rels {
		var root *pnode
		for _, row := range r.snapshot(true) {
			key := term.KeyOf(row)
			root, _ = pmSet(root, pmapHash(key), 0, key, row)
		}
		if root != nil {
			out.rels[predArity2{id.pred, id.arity}] = root
		}
	}
	return out
}

// Thaw materializes a FrozenDB into a fresh mutable DB.
func (f FrozenDB) Thaw(opts ...Option) *DB {
	d := New(opts...)
	for pa, root := range f.rels {
		pmRange(root, func(_ string, val []term.Term) bool {
			d.Insert(pa.pred, val)
			return true
		})
	}
	d.ResetTrail()
	return d
}

// Size returns the tuple count.
func (f FrozenDB) Size() int { return f.size }

// Fingerprint matches DB.Fingerprint for identical contents.
func (f FrozenDB) Fingerprint() [2]uint64 { return [2]uint64{f.lo, f.hi} }

// Contains reports membership of the ground tuple pred(row).
func (f FrozenDB) Contains(pred string, row []term.Term) bool {
	root := f.rels[predArity2{pred, len(row)}]
	if root == nil {
		return false
	}
	key := term.KeyOf(row)
	_, ok := pmGet(root, pmapHash(key), 0, key)
	return ok
}

// Insert returns a version with pred(row) present (set semantics).
func (f FrozenDB) Insert(pred string, row []term.Term) FrozenDB {
	pa := predArity2{pred, len(row)}
	key := term.KeyOf(row)
	root := f.rels[pa]
	stored := append([]term.Term(nil), row...)
	newRoot, added := pmSet(root, pmapHash(key), 0, key, stored)
	if !added {
		// Replaced an equal tuple: content unchanged.
		return f
	}
	out := f.withRel(pa, newRoot)
	out.size = f.size + 1
	lo, hi := tupleHash(pred, len(row), row)
	out.lo, out.hi = f.lo^lo, f.hi^hi
	return out
}

// ApplyOps returns a version with the ops applied in order. Equivalent to
// chaining Insert/Delete, but the relation directory is copied once per
// batch instead of once per op — this runs under the server's sequencer
// lock on every commit. Ops extracted from an undo trail (non-empty
// storeKey) carry rows that are immutable everywhere, so they are shared
// rather than copied. Each op's canonical key is taken through Op.Key, so a
// WAL append of the same slice finds it already built.
func (f FrozenDB) ApplyOps(ops []Op) FrozenDB {
	if len(ops) == 0 {
		return f
	}
	rels := make(map[predArity2]*pnode, len(f.rels)+1)
	for k, v := range f.rels {
		rels[k] = v
	}
	out := FrozenDB{rels: rels, size: f.size, lo: f.lo, hi: f.hi}
	for i := range ops {
		o := &ops[i]
		pa := predArity2{o.Pred, len(o.Row)}
		key := o.Key()
		if o.Insert {
			stored := o.Row
			if o.storeKey == "" {
				stored = append([]term.Term(nil), o.Row...)
			}
			newRoot, added := pmSet(rels[pa], pmapHash(key), 0, key, stored)
			if !added {
				continue
			}
			rels[pa] = newRoot
			out.size++
		} else {
			newRoot, removed := pmDel(rels[pa], pmapHash(key), 0, key)
			if !removed {
				continue
			}
			if newRoot == nil {
				delete(rels, pa)
			} else {
				rels[pa] = newRoot
			}
			out.size--
		}
		lo, hi := tupleHash(o.Pred, len(o.Row), o.Row)
		out.lo ^= lo
		out.hi ^= hi
	}
	return out
}

// Delete returns a version with pred(row) absent (set semantics).
func (f FrozenDB) Delete(pred string, row []term.Term) FrozenDB {
	pa := predArity2{pred, len(row)}
	root := f.rels[pa]
	if root == nil {
		return f
	}
	key := term.KeyOf(row)
	newRoot, removed := pmDel(root, pmapHash(key), 0, key)
	if !removed {
		return f
	}
	out := f.withRel(pa, newRoot)
	out.size = f.size - 1
	lo, hi := tupleHash(pred, len(row), row)
	out.lo, out.hi = f.lo^lo, f.hi^hi
	return out
}

// withRel copies the relation directory with one root replaced; the map
// copy is O(#relations), which is a schema-sized constant, not data-sized.
func (f FrozenDB) withRel(pa predArity2, root *pnode) FrozenDB {
	rels := make(map[predArity2]*pnode, len(f.rels)+1)
	for k, v := range f.rels {
		rels[k] = v
	}
	if root == nil {
		delete(rels, pa)
	} else {
		rels[pa] = root
	}
	return FrozenDB{rels: rels, size: f.size, lo: f.lo, hi: f.hi}
}

// Range visits every tuple, relations ordered by (pred, arity) so the
// visit order is deterministic for identical contents; within a relation
// the order is trie order. Stops early when fn returns false. key is the
// canonical tuple key (term.KeyOf of row). The checkpointer streams a
// frozen view to disk through this without materializing anything.
func (f FrozenDB) Range(fn func(pred string, arity int, key string, row []term.Term) bool) {
	pas := make([]predArity2, 0, len(f.rels))
	for pa := range f.rels {
		pas = append(pas, pa)
	}
	sort.Slice(pas, func(i, j int) bool {
		if pas[i].pred != pas[j].pred {
			return pas[i].pred < pas[j].pred
		}
		return pas[i].arity < pas[j].arity
	})
	for _, pa := range pas {
		if !pmRange(f.rels[pa], func(key string, val []term.Term) bool {
			return fn(pa.pred, pa.arity, key, val)
		}) {
			return
		}
	}
}

// Count returns the tuple count of pred/arity.
func (f FrozenDB) Count(pred string, arity int) int {
	n := 0
	pmRange(f.rels[predArity2{pred, arity}], func(string, []term.Term) bool {
		n++
		return true
	})
	return n
}
