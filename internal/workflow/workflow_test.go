package workflow

import (
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/sim"
)

func simpleSpec() *Spec {
	return &Spec{
		Name: "simple",
		Tasks: []Task{
			{Name: "a"},
			{Name: "b", After: []string{"a"}},
			{Name: "c", After: []string{"a"}},
			{Name: "d", After: []string{"b", "c"}},
		},
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name string
		spec *Spec
		sub  string
	}{
		{"bad name", &Spec{Name: "Bad", Tasks: []Task{{Name: "t"}}}, "lowercase"},
		{"no tasks", &Spec{Name: "x"}, "no tasks"},
		{"dup task", &Spec{Name: "x", Tasks: []Task{{Name: "t"}, {Name: "t"}}}, "duplicate"},
		{"unknown dep", &Spec{Name: "x", Tasks: []Task{{Name: "t", After: []string{"u"}}}}, "unknown task"},
		{"cycle", &Spec{Name: "x", Tasks: []Task{
			{Name: "a", After: []string{"b"}},
			{Name: "b", After: []string{"a"}},
		}}, "cycle"},
		{"agent+sub", &Spec{Name: "x", Tasks: []Task{
			{Name: "t", AgentClass: "c", Sub: &Spec{Name: "y", Tasks: []Task{{Name: "u"}}}},
		}}, "cannot both"},
		{"dup spec", &Spec{Name: "x", Tasks: []Task{
			{Name: "t", Sub: &Spec{Name: "x", Tasks: []Task{{Name: "u"}}}},
		}}, "duplicate spec"},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil || !strings.Contains(err.Error(), c.sub) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.sub)
		}
	}
	if err := simpleSpec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestCompileParses(t *testing.T) {
	src, err := Compile(simpleSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parser.Parse(src); err != nil {
		t.Fatalf("compiled rules do not parse: %v\n%s", err, src)
	}
}

// runProver proves goal over src with the proof-theoretic engine.
func runProver(t *testing.T, src, goal string) (*engine.Result, *db.DB) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	g, _, err := parser.ParseGoal(goal, prog.VarHigh)
	if err != nil {
		t.Fatal(err)
	}
	d, err := db.FromFacts(prog.Facts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.NewDefault(prog).Prove(g, d)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	return res, d
}

func TestDiamondOrderingProver(t *testing.T) {
	src, err := Compile(simpleSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, d := runProver(t, src, "wf_simple(w1)")
	if !res.Success {
		t.Fatal("workflow failed under prover")
	}
	for _, task := range []string{"a", "b", "c", "d"} {
		if d.Count(DonePred("simple", task), 1) != 1 {
			t.Errorf("task %s not done:\n%s", task, d)
		}
	}
}

func TestDiamondOrderingSim(t *testing.T) {
	src, err := Compile(simpleSpec())
	if err != nil {
		t.Fatal(err)
	}
	prog := parser.MustParse(src)
	g := parser.MustParseGoal("wf_simple(w1)", prog.VarHigh)
	res := sim.New(prog, sim.Options{Timeout: 3 * time.Second, Trace: true}).Run(g, db.New())
	if !res.Completed {
		t.Fatalf("sim failed: %v", res.Err)
	}
	// The trace must respect the dependency order: a before b and c,
	// b and c before d.
	pos := map[string]int64{}
	for _, e := range res.Events {
		if e.Op == "ins" && strings.HasPrefix(e.Atom, "done_simple_") {
			pos[strings.TrimSuffix(strings.TrimPrefix(e.Atom, "done_simple_"), "(w1)")] = e.Seq
		}
	}
	if !(pos["a"] < pos["b"] && pos["a"] < pos["c"] && pos["b"] < pos["d"] && pos["c"] < pos["d"]) {
		t.Fatalf("dependency order violated: %v", pos)
	}
}

func TestSubWorkflow(t *testing.T) {
	spec := &Spec{
		Name: "outer",
		Tasks: []Task{
			{Name: "first"},
			{Name: "nested", After: []string{"first"}, Sub: &Spec{
				Name: "inner",
				Tasks: []Task{
					{Name: "i1"},
					{Name: "i2", After: []string{"i1"}},
				},
			}},
			{Name: "last", After: []string{"nested"}},
		},
	}
	src, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, d := runProver(t, src, "wf_outer(w)")
	if !res.Success {
		t.Fatal("nested workflow failed")
	}
	for _, p := range []string{
		DonePred("outer", "first"), DonePred("outer", "nested"),
		DonePred("outer", "last"), DonePred("inner", "i1"), DonePred("inner", "i2"),
	} {
		if d.Count(p, 1) != 1 {
			t.Errorf("%s missing:\n%s", p, d)
		}
	}
}

func TestAgentAcquisitionProver(t *testing.T) {
	spec := &Spec{
		Name: "staffed",
		Tasks: []Task{
			{Name: "work", AgentClass: "tech"},
		},
	}
	rules, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	src := rules + AgentFacts(map[string]int{"tech": 1})
	res, d := runProver(t, src, "wf_staffed(w1), wf_staffed(w2)")
	if !res.Success {
		t.Fatal("staffed workflow failed")
	}
	if d.Count("available", 1) != 1 {
		t.Fatalf("agent not released:\n%s", d)
	}
	// Without any agents the workflow must fail.
	res2, _ := runProver(t, rules, "wf_staffed(w1)")
	if res2.Success {
		t.Fatal("workflow succeeded with empty agent pool")
	}
}

func TestDriverProcessesAllItemsSim(t *testing.T) {
	spec := simpleSpec()
	rules, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	src := rules + Driver(spec.Name) + ItemFacts(5)
	prog := parser.MustParse(src)
	g := parser.MustParseGoal(DriverGoal(spec.Name), prog.VarHigh)
	d, _ := db.FromFacts(prog.Facts)
	res := sim.New(prog, sim.Options{Timeout: 5 * time.Second}).Run(g, d)
	if !res.Completed {
		t.Fatalf("driver failed: %v", res.Err)
	}
	if n := res.Final.Count(DonePred("simple", "d"), 1); n != 5 {
		t.Fatalf("completed %d/5 items", n)
	}
}

func TestSequentialDriverIsFullyBounded(t *testing.T) {
	spec := &Spec{Name: "tiny", Tasks: []Task{{Name: "only"}}}
	rules, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	src := rules + SequentialDriver(spec.Name)
	prog := parser.MustParse(src)
	r := analysis.Analyze(prog).Classify()
	if r.Fragment > analysis.FullyBounded {
		t.Fatalf("sequential driver fragment = %v, want at most FullyBounded", r.Fragment)
	}
	// And the concurrent Driver is full TD (recursion under |).
	src2 := rules + Driver(spec.Name)
	prog2 := parser.MustParse(src2)
	r2 := analysis.Analyze(prog2).Classify()
	if r2.Fragment != analysis.Full {
		t.Fatalf("concurrent driver fragment = %v, want Full", r2.Fragment)
	}
	if !r2.Features.RecursionUnderConc {
		t.Fatalf("driver recursion under | missed: %+v", r2.Features)
	}
}

func TestSequentialDriverRuns(t *testing.T) {
	spec := simpleSpec()
	rules, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	src := rules + SequentialDriver(spec.Name) + ItemFacts(4)
	res, d := runProver(t, src, SequentialDriverGoal(spec.Name))
	if !res.Success {
		t.Fatal("sequential driver failed under prover")
	}
	if n := d.Count(DonePred("simple", "d"), 1); n != 4 {
		t.Fatalf("completed %d/4 items", n)
	}
}

func TestGenomeLabSimulation(t *testing.T) {
	cfg := DefaultLab(6)
	src, goal, err := LabSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("lab source does not parse: %v", err)
	}
	g := parser.MustParseGoal(goal, prog.VarHigh)
	d, _ := db.FromFacts(prog.Facts)
	total := cfg.Technicians + cfg.Thermocyclers + cfg.GelRigs + cfg.Cameras + cfg.Analysts
	res := sim.New(prog, sim.Options{
		Timeout:  10 * time.Second,
		Shuffle:  true,
		Seed:     42,
		Monitors: []sim.MonitorFunc{AgentCapacityMonitor(total)},
	}).Run(g, d)
	if !res.Completed {
		t.Fatalf("lab run failed: %v", res.Err)
	}
	if err := CheckLabRun(cfg, res.Final); err != nil {
		t.Fatalf("lab invariants: %v\n%s", err, res.Final)
	}
}

func TestGenomeLabContention(t *testing.T) {
	// One of everything: heavy contention, still must complete.
	cfg := LabConfig{Samples: 4, Technicians: 1, Thermocyclers: 1, GelRigs: 1, Cameras: 1, Analysts: 1}
	src, goal, err := LabSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := parser.MustParse(src)
	g := parser.MustParseGoal(goal, prog.VarHigh)
	d, _ := db.FromFacts(prog.Facts)
	res := sim.New(prog, sim.Options{Timeout: 10 * time.Second, Seed: 7, Shuffle: true}).Run(g, d)
	if !res.Completed {
		t.Fatalf("contended lab failed: %v", res.Err)
	}
	if err := CheckLabRun(cfg, res.Final); err != nil {
		t.Fatal(err)
	}
}

func TestAgentFactsDeterministic(t *testing.T) {
	a := AgentFacts(map[string]int{"x": 2, "a": 1})
	b := AgentFacts(map[string]int{"a": 1, "x": 2})
	if a != b {
		t.Fatal("AgentFacts output depends on map order")
	}
	if !strings.Contains(a, "agent(a1).") || !strings.Contains(a, "available(x2).") {
		t.Fatalf("AgentFacts content wrong:\n%s", a)
	}
}

func TestQualifyAndItemFacts(t *testing.T) {
	if got := Qualify("bob", "taskx"); got != "qualified(bob, taskx).\n" {
		t.Errorf("Qualify = %q", got)
	}
	items := ItemFacts(3)
	for _, want := range []string{"newitem(item1).", "newitem(item2).", "newitem(item3)."} {
		if !strings.Contains(items, want) {
			t.Errorf("ItemFacts missing %s", want)
		}
	}
}

func TestOneOfChoice(t *testing.T) {
	spec := &Spec{
		Name: "routed",
		Tasks: []Task{
			{Name: "triage"},
			{Name: "handle", After: []string{"triage"}, OneOf: []*Spec{
				{Name: "fastpath", Tasks: []Task{{Name: "quick"}}},
				{Name: "slowpath", Tasks: []Task{{Name: "deep"}, {Name: "review", After: []string{"deep"}}}},
			}},
			{Name: "close", After: []string{"handle"}},
		},
	}
	src, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, d := runProver(t, src, "wf_routed(w)")
	if !res.Success {
		t.Fatal("choice workflow failed")
	}
	// Exactly one alternative was taken.
	fast := d.Count(DonePred("fastpath", "quick"), 1)
	slow := d.Count(DonePred("slowpath", "review"), 1)
	if fast+slow != 1 {
		t.Fatalf("alternatives taken: fast=%d slow=%d:\n%s", fast, slow, d)
	}
	if d.Count("chose_routed_handle", 2) != 1 {
		t.Fatalf("choice record missing:\n%s", d)
	}
	if d.Count(DonePred("routed", "close"), 1) != 1 {
		t.Fatal("close did not run after choice")
	}
}

func TestOneOfChoiceSim(t *testing.T) {
	spec := &Spec{
		Name: "routed2",
		Tasks: []Task{
			{Name: "pick", OneOf: []*Spec{
				{Name: "left", Tasks: []Task{{Name: "l1"}}},
				{Name: "right", Tasks: []Task{{Name: "r1"}}},
			}},
		},
	}
	src, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	prog := parser.MustParse(src)
	g := parser.MustParseGoal("wf_routed2(w)", prog.VarHigh)
	tookLeft, tookRight := false, false
	for seed := int64(0); seed < 12; seed++ {
		res := sim.New(prog, sim.Options{Timeout: 2 * time.Second, Seed: seed, Shuffle: true}).Run(g, db.New())
		if !res.Completed {
			t.Fatalf("seed %d: %v", seed, res.Err)
		}
		l := res.Final.Count(DonePred("left", "l1"), 1)
		r := res.Final.Count(DonePred("right", "r1"), 1)
		if l+r != 1 {
			t.Fatalf("seed %d: l=%d r=%d", seed, l, r)
		}
		tookLeft = tookLeft || l == 1
		tookRight = tookRight || r == 1
	}
	if !tookLeft || !tookRight {
		t.Fatalf("shuffled choice never varied: left=%v right=%v", tookLeft, tookRight)
	}
}

func TestOneOfValidation(t *testing.T) {
	bad := &Spec{Name: "x", Tasks: []Task{{
		Name: "t", AgentClass: "c",
		OneOf: []*Spec{{Name: "y", Tasks: []Task{{Name: "u"}}}},
	}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("OneOf+AgentClass accepted")
	}
}

func TestDotRendersValidStructure(t *testing.T) {
	dot, err := Dot(GenomeSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"digraph workflow {",
		`subgraph "cluster_mapping"`,
		`subgraph "cluster_gel"`,
		`"mapping.prep" -> "mapping.digest";`,
		`"gel.run" -> "gel.photo";`,
		"[technician]",
		"style=dotted", // container task tied to sub-workflow entry
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Balanced braces.
	if strings.Count(dot, "{") != strings.Count(dot, "}") {
		t.Fatal("unbalanced braces in DOT output")
	}
}

func TestDotChoiceEdges(t *testing.T) {
	spec := &Spec{Name: "r", Tasks: []Task{
		{Name: "pick", OneOf: []*Spec{
			{Name: "l", Tasks: []Task{{Name: "l1"}}},
			{Name: "rr", Tasks: []Task{{Name: "r1"}}},
		}},
	}}
	dot, err := Dot(spec)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(dot, `label="or"`) != 2 {
		t.Fatalf("expected two alternative edges:\n%s", dot)
	}
	if !strings.Contains(dot, "shape=diamond") {
		t.Fatalf("choice node not diamond:\n%s", dot)
	}
}

func TestDotRejectsInvalidSpec(t *testing.T) {
	if _, err := Dot(&Spec{Name: "x"}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestBuildSource(t *testing.T) {
	spec := simpleSpec()
	src, goal, err := BuildSource(spec, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	prog := parser.MustParse(src)
	g := parser.MustParseGoal(goal, prog.VarHigh)
	d, _ := db.FromFacts(prog.Facts)
	res := sim.New(prog, sim.Options{Timeout: 5 * time.Second}).Run(g, d)
	if !res.Completed {
		t.Fatalf("built program failed: %v", res.Err)
	}
	if res.Final.Count(DonePred("simple", "d"), 1) != 3 {
		t.Fatal("items incomplete")
	}
	if _, _, err := BuildSource(&Spec{Name: "Bad"}, nil, 1); err == nil {
		t.Fatal("invalid spec accepted")
	}
}
