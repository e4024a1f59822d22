package experiments

import (
	"fmt"
	"time"

	"repro/internal/complexity"
	"repro/internal/db"
	"repro/internal/parser"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// E3WorkflowSpec — Example 3.1: a workflow made of tasks and a
// sub-workflow, with ordering enforced through the history relations. The
// prover verifies every execution respects dependencies; the table lists
// the task history of a witness execution.
func E3WorkflowSpec(cfg Config) Report {
	r := Report{ID: "E3", Title: "Example 3.1: workflow specification (tasks + sub-workflow)", Pass: true}
	spec := workflow.GenomeSpec()
	rules, err := workflow.Compile(spec)
	if err != nil {
		return failed(r, err)
	}
	src := rules + workflow.AgentFacts(map[string]int{
		"technician": 2, "thermocycler": 1, "gel_rig": 1, "camera": 1, "analyst": 1,
	})
	res, d, err := prove(src, "wf_mapping(item1)", defaultOpts())
	if err != nil {
		return failed(r, err)
	}
	if !res.Success {
		r.Pass = false
		r.Notes = append(r.Notes, "workflow did not commit")
	}
	tab := complexity.NewTable("witness history", "history relation", "tuples")
	for _, p := range []string{
		workflow.DonePred("mapping", "prep"), workflow.DonePred("mapping", "digest"),
		workflow.DonePred("mapping", "gelstep"), workflow.DonePred("mapping", "analyze"),
		workflow.DonePred("gel", "load"), workflow.DonePred("gel", "run"),
		workflow.DonePred("gel", "photo"),
	} {
		n := d.Count(p, 1)
		tab.AddRow(p, n)
		if n != 1 {
			r.Pass = false
		}
	}
	r.Tables = append(r.Tables, tab)
	r.Notes = append(r.Notes, fmt.Sprintf("prover steps: %d", res.Stats.Steps))
	// A task must not be able to run before its predecessors.
	res2, _, err := prove(src, "task_mapping_analyze(item1)", defaultOpts())
	if err != nil {
		return failed(r, err)
	}
	if res2.Success {
		r.Pass = false
		r.Notes = append(r.Notes, "analyze ran before gelstep completed")
	}
	return r
}

// E4Simulation — Example 3.2: simulating a workflow that spawns a
// concurrent instance per work item, with the environment as just another
// process. Measured on the operational simulator; cost and process count
// scale linearly with the item stream.
func E4Simulation(cfg Config) Report {
	r := Report{ID: "E4", Title: "Example 3.2: workflow simulation (recursive spawning + environment)", Pass: true}
	spec := workflow.GenomeSpec()
	rules, err := workflow.Compile(spec)
	if err != nil {
		return failed(r, err)
	}
	sizes := pick(cfg.Quick, []int{2, 4, 8}, []int{2, 4, 8, 16, 32})
	series := complexity.Sweep("items through the lab", sizes, func(n int) (float64, map[string]float64) {
		cfgLab := workflow.DefaultLab(n)
		src := rules + workflow.Driver(spec.Name) +
			workflow.AgentFacts(map[string]int{
				"technician": cfgLab.Technicians, "thermocycler": cfgLab.Thermocyclers,
				"gel_rig": cfgLab.GelRigs, "camera": cfgLab.Cameras, "analyst": cfgLab.Analysts,
			}) + workflow.ItemFacts(n)
		res, err := simulate(src, workflow.DriverGoal(spec.Name), simOpts())
		if err != nil || !res.Completed {
			r.Pass = false
			return 0, nil
		}
		if err := workflow.CheckLabRun(cfgLab, res.Final); err != nil {
			r.Pass = false
			r.Notes = append(r.Notes, err.Error())
		}
		return float64(res.Ops), map[string]float64{"processes": float64(res.Spawned)}
	})
	fit := complexity.FitGrowth(series)
	r.Tables = append(r.Tables, complexity.SeriesTable(series))
	r.Notes = append(r.Notes, "fit: "+fit.Classify())
	// The claim is bounded work per item: a log-log slope near 1. There is
	// no polynomial-vs-exponential contest here — the simulator's op counts
	// depend on goroutine scheduling, and over quick mode's three sizes the
	// two models' R² are too close for that noise not to flip the winner.
	if fit.PolyDegree > 1.7 {
		r.Pass = false
		r.Notes = append(r.Notes, "expected ~linear scaling in item count")
	}
	return r
}

// E5SharedAgents — Example 3.3: agents are shared resources limiting
// concurrency. Fixed work, varying pool size: the invariant (never more
// busy agents than the pool holds) must hold on every run, and wall-clock
// throughput improves with more agents while total work stays flat.
func E5SharedAgents(cfg Config) Report {
	r := Report{ID: "E5", Title: "Example 3.3: shared resources (agent pools)", Pass: true}
	const items = 12
	pools := pick(cfg.Quick, []int{1, 2}, []int{1, 2, 4, 8})
	src := `
		job(W) :- qualified(A, tech), available(A), del.available(A),
		          ins.doing(A, W, job), ins.served(W), del.doing(A, W, job), ins.available(A).
		loop :- newitem(X), del.newitem(X), (job(X) | loop).
		loop :- empty.newitem.
	`
	tab := complexity.NewTable("throughput vs pool size", "agents", "ops", "wall time", "served", "max busy")
	for _, a := range pools {
		full := src + workflow.AgentFacts(map[string]int{"tech": a}) + workflow.ItemFacts(items)
		maxBusy := 0
		mon := func(d *db.DB) error {
			if n := d.Count("doing", 3); n > maxBusy {
				maxBusy = n
			}
			if n := d.Count("doing", 3); n > a {
				return fmt.Errorf("%d busy > pool %d", n, a)
			}
			return nil
		}
		opts := simOpts()
		opts.Monitors = []sim.MonitorFunc{mon}
		opts.Shuffle = true
		opts.Seed = 5
		start := time.Now()
		res, err := simulate(full, "loop", opts)
		elapsed := time.Since(start)
		if err != nil || !res.Completed {
			r.Pass = false
			r.Notes = append(r.Notes, fmt.Sprintf("pool %d failed: %v", a, resErr(res, err)))
			continue
		}
		served := res.Final.Count("served", 1)
		tab.AddRow(a, res.Ops, elapsed, served, maxBusy)
		if served != items {
			r.Pass = false
		}
		if maxBusy > a {
			r.Pass = false
			r.Notes = append(r.Notes, "capacity invariant violated")
		}
	}
	r.Tables = append(r.Tables, tab)
	r.Notes = append(r.Notes, "invariant: busy agents never exceed the pool (checked after every update)")
	return r
}

// E6Cooperation — Example 3.4: a network of cooperating workflows
// synchronizing through the database. wf2 needs wf1's measurements; both
// complete in either spawn order, and the dependent tuple is always
// derived from the produced one.
func E6Cooperation(cfg Config) Report {
	r := Report{ID: "E6", Title: "Example 3.4: cooperating workflows, synchronization via the database", Pass: true}
	parts := pick(cfg.Quick, []int{2, 4}, []int{2, 4, 8, 16})
	src := `
		wf1(P) :- ins.prepped(P), ins.measured(P, 42).
		wf2(P) :- measured(P, V), ins.verified(P, V).
		drive1 :- part(P), del.part(P), (wf1(P) | ins.handoff(P) | drive1).
		drive1 :- empty.part.
		drive2 :- handoff(P), del.handoff(P), (wf2(P) | drive2).
		drive2 :- eof.
	`
	tab := complexity.NewTable("cooperating pipelines", "parts", "ops", "verified")
	for _, n := range parts {
		var facts string
		for i := 0; i < n; i++ {
			facts += fmt.Sprintf("part(p%d).\n", i)
		}
		full := src + facts
		opts := simOpts()
		prog := parser.MustParse(full)
		g := parser.MustParseGoal("(drive1 | drive2), ins.eofdone", prog.VarHigh)
		_ = g
		// drive2 needs an eof signal after all parts are handed off; use a
		// supervising goal.
		goal := "drive1, ins.eof | drive2"
		res, err := simulate(full, goal, opts)
		if err != nil || !res.Completed {
			r.Pass = false
			r.Notes = append(r.Notes, fmt.Sprintf("n=%d: %v", n, resErr(res, err)))
			continue
		}
		verified := res.Final.Count("verified", 2)
		tab.AddRow(n, res.Ops, verified)
		if verified != n {
			r.Pass = false
			r.Notes = append(r.Notes, fmt.Sprintf("n=%d: only %d verified", n, verified))
		}
	}
	r.Tables = append(r.Tables, tab)
	return r
}

func failed(r Report, err error) Report {
	r.Pass = false
	r.Notes = append(r.Notes, err.Error())
	return r
}

func resErr(res *sim.Result, err error) error {
	if err != nil {
		return err
	}
	if res != nil {
		return res.Err
	}
	return nil
}

var _ = db.New // keep import when builds shuffle
