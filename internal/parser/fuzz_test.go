package parser

import (
	"strings"
	"testing"
)

// FuzzParse checks that the parser never panics on arbitrary input and
// that accepted programs survive a print → reparse → print round trip
// (String is a fixed point after one normalization).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"p(a).",
		"r(X) :- p(X), del.p(X), ins.q(X).",
		"w :- a, (b | c), d.",
		"m :- iso(t1) | iso(t2).",
		"q :- empty.busy, X > 3, add(X, 1, Y).",
		"?- p(X), ins.q(X).",
		"% comment\np(a). /* block */ p(b).",
		`msg("string with \"escape\"").`,
		"deep :- ((((a)))).",
		"neg(-5).",
		"r :- ins. p(a).",
		"x :- a | b | c | d | e.",
		":-",
		"p(",
		"ins.p",
		"p(a)q",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		printed := prog.String()
		prog2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed program does not reparse: %v\ninput: %q\nprinted: %q", err, src, printed)
		}
		if got := prog2.String(); got != printed {
			t.Fatalf("print not stable:\nfirst:  %q\nsecond: %q", printed, got)
		}
	})
}

// FuzzParseGoal: goals never panic and round-trip when accepted.
func FuzzParseGoal(f *testing.F) {
	for _, s := range []string{
		"p(X)",
		"a, b | c",
		"iso(p), del.q(X)",
		"X > 3",
		"true",
		"(",
		strings.Repeat("(", maxGoalDepth+1) + "a" + strings.Repeat(")", maxGoalDepth+1),
		strings.Repeat("iso(", 50) + "p" + strings.Repeat(")", 50),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, _, err := ParseGoal(src, 0)
		if err != nil {
			return
		}
		printed := g.String()
		g2, _, err := ParseGoal(printed, 1000)
		if err != nil {
			t.Fatalf("printed goal does not reparse: %v (%q -> %q)", err, src, printed)
		}
		if g2.String() != printed {
			t.Fatalf("goal print not stable: %q vs %q", printed, g2.String())
		}
	})
}
