package term

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Symbol interning. Every symbolic constant (and every string constant)
// carries a dense uint32 id assigned by a process-global interner; the name
// is kept on the Term only for display and ordering. Interning makes
// equality an integer comparison and lets the database key tuples by
// fixed-size codes (see Code and AppendKey) instead of built strings, so
// the hot query/insert/delete path allocates nothing.
//
// The interner is sharded and RWMutex-guarded: lookups of known names (the
// steady state of a long-running server, where the parser interns at parse
// time and the engine only ever re-reads) take a shard read-lock; only the
// first occurrence of a name takes a write-lock. It is safe for concurrent
// use from any number of sessions.
//
// Ids grow monotonically and are never reclaimed: a server that parses
// unboundedly many distinct symbols grows its intern table accordingly.
// That is the standard trade of interned-symbol engines; docs/PERF.md
// discusses it.

const internShardCount = 64 // power of two

type internShard struct {
	mu  sync.RWMutex
	ids map[string]uint32
}

var internTable struct {
	next   atomic.Uint32
	shards [internShardCount]internShard

	// names is the reverse table, id -> name, behind FromCode. It is
	// written once per new name, inside that name's shard critical
	// section, so whoever holds an id can already look its name up.
	namesMu sync.RWMutex
	names   []string
}

func init() {
	for i := range internTable.shards {
		internTable.shards[i].ids = make(map[string]uint32)
	}
	// Reserve id 0 for the empty name so symbols interned before any user
	// code runs have a stable, predictable identity.
	if id := Intern(""); id != 0 {
		panic("term: empty symbol did not intern to id 0")
	}
}

// internHash is FNV-1a over s, used only to pick a shard.
func internHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// Intern returns the dense id of name, assigning one on first use.
// Equal names always yield equal ids within a process.
func Intern(name string) uint32 {
	sh := &internTable.shards[internHash(name)&(internShardCount-1)]
	sh.mu.RLock()
	id, ok := sh.ids[name]
	sh.mu.RUnlock()
	if ok {
		return id
	}
	return internSlow(sh, name)
}

// internBytes is Intern for a byte-slice name. On the hit path (the steady
// state) the map lookup converts b without allocating.
func internBytes(b []byte) uint32 {
	sh := &internTable.shards[internHash(string(b))&(internShardCount-1)]
	sh.mu.RLock()
	id, ok := sh.ids[string(b)]
	sh.mu.RUnlock()
	if ok {
		return id
	}
	return internSlow(sh, string(b))
}

func internSlow(sh *internShard, name string) uint32 {
	sh.mu.Lock()
	id, ok := sh.ids[name]
	if !ok {
		id = internTable.next.Add(1) - 1
		sh.ids[name] = id
		internTable.namesMu.Lock()
		for int(id) >= len(internTable.names) {
			internTable.names = append(internTable.names, "")
		}
		internTable.names[id] = name
		internTable.namesMu.Unlock()
	}
	sh.mu.Unlock()
	return id
}

// internName returns the name interned under id.
func internName(id uint32) (string, bool) {
	internTable.namesMu.RLock()
	defer internTable.namesMu.RUnlock()
	if int(id) >= len(internTable.names) {
		return "", false
	}
	return internTable.names[id], true
}

// InternedCount returns the number of distinct names interned so far
// (metrics and tests).
func InternedCount() int { return int(internTable.next.Load()) }

// Ground-term codes. Code maps every ground term to a uint64 such that two
// ground terms are equal iff their codes are equal (injective within a
// process). The low 3 bits tag the kind; the payload is the interned id
// (symbols, strings), the value itself (integers that fit 61 bits), or the
// interned decimal rendering (the rare out-of-range integers).
const (
	codeTagSym uint64 = 1
	codeTagStr uint64 = 2
	codeTagInt uint64 = 3
	codeTagBig uint64 = 4
)

// Code returns the canonical uint64 code of a ground term. It panics on
// variables: only ground terms are stored or dispatched on.
func (t Term) Code() uint64 {
	switch t.kind {
	case Sym:
		return uint64(uint32(t.num))<<3 | codeTagSym
	case Str:
		return uint64(uint32(t.num))<<3 | codeTagStr
	case Int:
		if (t.num<<3)>>3 == t.num {
			return uint64(t.num)<<3 | codeTagInt
		}
		var buf [24]byte
		return uint64(appendIntID(buf[:0], t.num))<<3 | codeTagBig
	default:
		panic("term: Code of non-ground term " + t.String())
	}
}

// FromCode is the inverse of Code: the ground term whose code is c, or
// false when c is not a code this process has handed out. Codes say which
// region of a relation a read observed (db.ReadHook's first); this is how a
// diagnostic names that region. Not a hot-path function.
func FromCode(c uint64) (Term, bool) {
	tag, payload := c&7, c>>3
	if tag == codeTagInt {
		return NewInt(int64(c) >> 3), true
	}
	if tag < codeTagSym || tag > codeTagBig || payload > math.MaxUint32 {
		return Term{}, false
	}
	name, ok := internName(uint32(payload))
	if !ok {
		return Term{}, false
	}
	switch tag {
	case codeTagSym:
		return Term{kind: Sym, num: int64(payload), str: name}, true
	case codeTagStr:
		return Term{kind: Str, num: int64(payload), str: name}, true
	}
	v, err := strconv.ParseInt(name, 10, 64)
	return NewInt(v), err == nil
}

// appendIntID interns the decimal rendering of v using scratch buf.
func appendIntID(buf []byte, v int64) uint32 {
	// Minimal AppendInt: avoid importing strconv here for clarity of the
	// zero-alloc contract (the scratch buffer stays on the caller's stack).
	neg := v < 0
	u := uint64(v)
	if neg {
		u = -u
	}
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + u%10)
		u /= 10
		if u == 0 {
			break
		}
	}
	if neg {
		i--
		tmp[i] = '-'
	}
	buf = append(buf, tmp[i:]...)
	return internBytes(buf)
}

// AppendKey appends the fixed 8-byte little-endian code of each ground term
// to dst and returns the extended slice. The result is an injective binary
// key for the tuple: the in-memory analogue of KeyOf (which stays the
// encoding for anything written to disk), built without any per-term string
// work. Distinct tuples of the same arity always produce
// distinct keys. Panics on variables.
func AppendKey(dst []byte, ts []Term) []byte {
	for _, t := range ts {
		c := t.Code()
		dst = append(dst,
			byte(c), byte(c>>8), byte(c>>16), byte(c>>24),
			byte(c>>32), byte(c>>40), byte(c>>48), byte(c>>56))
	}
	return dst
}

// AppendCode appends the 8-byte code c to dst (one tuple-key component).
func AppendCode(dst []byte, c uint64) []byte {
	return append(dst,
		byte(c), byte(c>>8), byte(c>>16), byte(c>>24),
		byte(c>>32), byte(c>>40), byte(c>>48), byte(c>>56))
}
