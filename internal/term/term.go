// Package term implements the first-order, function-free term language of
// Transaction Datalog: constants (symbols, integers, strings) and variables,
// together with binding environments, unification, and fresh renaming.
//
// Terms are small immutable values and are comparable with ==, so they can be
// used directly as map keys. Variables are identified by an integer id; the
// name is kept only for display.
package term

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates the variants of a Term.
type Kind uint8

// Term kinds.
const (
	Var Kind = iota // logic variable
	Sym             // symbolic constant, e.g. mary, task1
	Int             // integer constant
	Str             // quoted string constant
)

func (k Kind) String() string {
	switch k {
	case Var:
		return "var"
	case Sym:
		return "sym"
	case Int:
		return "int"
	case Str:
		return "str"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Term is a first-order term without function symbols. The zero value is the
// symbolic constant with empty name, which is never produced by the parser;
// code may use it as a sentinel.
type Term struct {
	kind Kind
	num  int64  // Var: id; Int: value; Sym/Str: interned id of str
	str  string // Var: display name; Sym: name; Str: contents
}

// NewVar returns a variable term with the given display name and id.
func NewVar(name string, id int64) Term { return Term{kind: Var, num: id, str: name} }

// NewSym returns a symbolic constant. The name is interned (see Intern), so
// equality of symbols is an integer comparison.
func NewSym(name string) Term { return Term{kind: Sym, num: int64(Intern(name)), str: name} }

// NewInt returns an integer constant.
func NewInt(v int64) Term { return Term{kind: Int, num: v} }

// NewStr returns a string constant. Like symbols, string contents are
// interned so that stored tuples can be keyed by fixed-size codes.
func NewStr(s string) Term { return Term{kind: Str, num: int64(Intern(s)), str: s} }

// Kind reports the variant of t.
func (t Term) Kind() Kind { return t.kind }

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return t.kind == Var }

// IsConst reports whether t is a constant (symbol, int, or string).
func (t Term) IsConst() bool { return t.kind != Var }

// VarID returns the variable id; it panics if t is not a variable.
func (t Term) VarID() int64 {
	if t.kind != Var {
		panic("term: VarID on non-variable " + t.String())
	}
	return t.num
}

// VarName returns the display name of a variable; panics on non-variables.
func (t Term) VarName() string {
	if t.kind != Var {
		panic("term: VarName on non-variable " + t.String())
	}
	return t.str
}

// SymName returns the name of a symbolic constant; panics otherwise.
func (t Term) SymName() string {
	if t.kind != Sym {
		panic("term: SymName on non-symbol " + t.String())
	}
	return t.str
}

// IntVal returns the value of an integer constant; panics otherwise.
func (t Term) IntVal() int64 {
	if t.kind != Int {
		panic("term: IntVal on non-integer " + t.String())
	}
	return t.num
}

// StrVal returns the contents of a string constant; panics otherwise.
func (t Term) StrVal() string {
	if t.kind != Str {
		panic("term: StrVal on non-string " + t.String())
	}
	return t.str
}

// String renders t in concrete TD syntax.
func (t Term) String() string {
	switch t.kind {
	case Var:
		if t.str != "" {
			return t.str
		}
		return "_G" + strconv.FormatInt(t.num, 10)
	case Sym:
		return t.str
	case Int:
		return strconv.FormatInt(t.num, 10)
	case Str:
		return strconv.Quote(t.str)
	default:
		return fmt.Sprintf("?term(%d)", t.kind)
	}
}

// Equal reports whether two terms are identical. Variables are equal iff
// their ids are equal; display names are ignored. Symbols and strings
// compare by interned id — an integer comparison, never a string walk.
func (t Term) Equal(u Term) bool {
	return t.kind == u.kind && t.num == u.num
}

// SymID returns the interned id of a symbolic constant; panics otherwise.
func (t Term) SymID() uint32 {
	if t.kind != Sym {
		panic("term: SymID on non-symbol " + t.String())
	}
	return uint32(t.num)
}

// Compare orders terms: by kind first (Var < Sym < Int < Str), then by value.
// It provides the deterministic ordering used when printing databases.
func (t Term) Compare(u Term) int {
	if t.kind != u.kind {
		if t.kind < u.kind {
			return -1
		}
		return 1
	}
	switch t.kind {
	case Var, Int:
		switch {
		case t.num < u.num:
			return -1
		case t.num > u.num:
			return 1
		}
		return 0
	default:
		return strings.Compare(t.str, u.str)
	}
}

// key appends a canonical encoding of a ground term to b. Used to build
// tuple keys for database storage; panics on variables because only ground
// tuples may be stored.
func (t Term) key(b *strings.Builder) {
	switch t.kind {
	case Sym:
		b.WriteByte('s')
		b.WriteString(strconv.Itoa(len(t.str)))
		b.WriteByte(':')
		b.WriteString(t.str)
	case Int:
		b.WriteByte('i')
		b.WriteString(strconv.FormatInt(t.num, 10))
	case Str:
		b.WriteByte('q')
		b.WriteString(strconv.Itoa(len(t.str)))
		b.WriteByte(':')
		b.WriteString(t.str)
	default:
		panic("term: key of non-ground term " + t.String())
	}
}

// KeyOf returns a canonical string encoding of a sequence of ground terms.
// Distinct tuples always map to distinct keys, and DecodeKey inverts it.
//
// It is the portable tuple encoding: the one to use for bytes that outlive
// the process — WAL op records, snapshot rows, and the frozen view
// (db.FrozenDB) that streams those rows to disk — because it depends on
// nothing but the terms themselves. Everything that lives and dies with the
// process keys tuples by interned codes instead (AppendKey for storage, the
// fingerprints db folds from Code for conflict detection and tabling): a
// code is 8 bytes and costs no string, but names a symbol only within the
// process that interned it. Do not add per-read or per-step callers here.
func KeyOf(ts []Term) string {
	var b strings.Builder
	for _, t := range ts {
		t.key(&b)
	}
	return b.String()
}
