package engine

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/parser"
	"repro/internal/term"
)

// The four entry points are shells over one search (Engine.search), and the
// shells must not bend it: over the corpus, with tracing on, Prove and
// ProveDelta+ResetTrail are indistinguishable — success, bindings, Stats,
// trace, span tree, final database — ProveDelta's write set is exactly the
// net change above its caller's mark, and Solutions and Enumerate walk the
// same executions in the same order and leave d as they found it.
func TestEntryPointsShareOneSearch(t *testing.T) {
	opts := DefaultOptions()
	opts.Trace = true
	opts.Plan = true
	for _, file := range planCorpus(t) {
		prog, err := parser.ParseFile(file)
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		for i, g := range planGoals(t, prog) {
			t.Run(fmt.Sprintf("%s/goal%d", filepath.Base(file), i), func(t *testing.T) {
				dp := freshDB(t, prog)
				rp, err := New(prog, opts).Prove(g, dp)
				if err != nil {
					t.Fatalf("Prove: %v", err)
				}

				dd := freshDB(t, prog)
				entry := dd.Fingerprint()
				mark := dd.Mark()
				rd, ops, err := New(prog, opts).ProveDelta(g, dd)
				if err != nil {
					t.Fatalf("ProveDelta: %v", err)
				}
				if net := dd.DeltaSince(mark); !reflect.DeepEqual(ops, net) {
					t.Fatalf("ProveDelta ops %v, DeltaSince(mark) %v", ops, net)
				}
				if !rd.Success && (dd.Mark() != mark || dd.Fingerprint() != entry) {
					t.Fatal("failed ProveDelta left changes on the trail")
				}
				dd.ResetTrail()

				if rp.Success != rd.Success || renderBindings(rp.Bindings) != renderBindings(rd.Bindings) {
					t.Fatalf("witness differs: Prove %v %s, ProveDelta %v %s",
						rp.Success, renderBindings(rp.Bindings), rd.Success, renderBindings(rd.Bindings))
				}
				if rp.Stats != rd.Stats {
					t.Fatalf("stats differ:\n Prove:      %+v\n ProveDelta: %+v", rp.Stats, rd.Stats)
				}
				if !reflect.DeepEqual(rp.Trace, rd.Trace) {
					t.Fatalf("traces differ:\n Prove:      %v\n ProveDelta: %v", rp.Trace, rd.Trace)
				}
				if rp.Success != (rp.Spans != nil) || rd.Success != (rd.Spans != nil) {
					t.Fatalf("span tree presence does not follow success: %v %v", rp.Spans != nil, rd.Spans != nil)
				}
				if rp.Success && rp.Spans.Tree() != rd.Spans.Tree() {
					t.Fatalf("span trees differ:\n Prove:\n%s\n ProveDelta:\n%s", rp.Spans.Tree(), rd.Spans.Tree())
				}
				if dp.Fingerprint() != dd.Fingerprint() {
					t.Fatalf("final fingerprints differ: Prove %x, ProveDelta %x", dp.Fingerprint(), dd.Fingerprint())
				}

				ds := freshDB(t, prog)
				sols, rs, err := New(prog, opts).Solutions(g, ds, answerSetCap)
				if err != nil {
					t.Fatalf("Solutions: %v", err)
				}
				de := freshDB(t, prog)
				var emitted []string
				re, err := New(prog, opts).Enumerate(g, de, answerSetCap, func(b map[string]term.Term) bool {
					emitted = append(emitted, renderBindings(b))
					return true
				})
				if err != nil {
					t.Fatalf("Enumerate: %v", err)
				}
				if len(sols) != len(emitted) || rs.Stats != re.Stats || rs.Success != re.Success {
					t.Fatalf("enumerations differ: Solutions %d %+v, Enumerate %d %+v", len(sols), rs.Stats, len(emitted), re.Stats)
				}
				for j, s := range sols {
					if renderBindings(s.Bindings) != emitted[j] {
						t.Fatalf("answer %d: Solutions %s, Enumerate %s", j, renderBindings(s.Bindings), emitted[j])
					}
				}
				if rs.Success != rp.Success || (rp.Success && emitted[0] != renderBindings(rp.Bindings)) {
					t.Fatalf("first enumerated answer is not Prove's witness: %v vs %s", emitted, renderBindings(rp.Bindings))
				}
				if ds.Fingerprint() != entry || de.Fingerprint() != entry || ds.Mark() != 0 || de.Mark() != 0 {
					t.Fatal("enumeration did not roll d back")
				}
			})
		}
	}
}
