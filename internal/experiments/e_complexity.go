package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/complexity"
	"repro/internal/datalog"
	"repro/internal/db"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/parser"
	"repro/internal/term"
)

// E7TwoStack — Theorem 4.4 / Corollary 4.6: the RE-completeness
// construction, run for real. Two-stack machines compile to three
// concurrent sequential TD processes (control + one process per stack,
// stacks encoded in recursion depth, communication via the database). The
// compiled programs must agree with the direct machine simulator, and the
// cost of simulating a halting machine grows polynomially with its step
// count.
func E7TwoStack(cfg Config) Report {
	r := Report{ID: "E7", Title: "Thm 4.4/Cor 4.6: two-stack machine in TD (3 concurrent sequential processes)", Pass: true}

	// Correctness: parity and Dyck agree with the simulator.
	tab := complexity.NewTable("machine vs TD agreement", "machine", "input", "simulator", "TD engine")
	check := func(m *machine.Machine, input []string, label string) {
		simRes, err := m.Run(input, 1_000_000)
		if err != nil {
			r.Pass = false
			return
		}
		src, goalSrc, err := machine.Source(m, input)
		if err != nil {
			r.Pass = false
			return
		}
		res, _, err := prove(src, goalSrc, defaultOpts())
		if err != nil {
			r.Pass = false
			r.Notes = append(r.Notes, label+": "+err.Error())
			return
		}
		tab.AddRow(m.Name, label, simRes.Accepted, res.Success)
		if res.Success != simRes.Accepted {
			r.Pass = false
			r.Notes = append(r.Notes, label+": TD disagrees with machine")
		}
	}
	check(machine.Parity(), machine.Ones(4), "one^4")
	check(machine.Parity(), machine.Ones(5), "one^5")
	check(machine.Dyck(), machine.Nested(3), "l^3 r^3")
	check(machine.Dyck(), []string{"l", "r", "r"}, "l r r")
	r.Tables = append(r.Tables, tab)

	// Scaling: the Copy machine moves n symbols across stacks; TD cost per
	// machine step should be polynomially bounded.
	sizes := pick(cfg.Quick, []int{2, 4, 6}, []int{2, 4, 8, 12, 16})
	series := complexity.Sweep("copy machine, n symbols", sizes, func(n int) (float64, map[string]float64) {
		src, goalSrc, err := machine.Source(machine.Copy(), machine.ABWord(n))
		if err != nil {
			r.Pass = false
			return 0, nil
		}
		opts := defaultOpts()
		return mustSteps(src, goalSrc, opts, true, &r.Pass), nil
	})
	fit := complexity.FitGrowth(series)
	r.Tables = append(r.Tables, complexity.SeriesTable(series))
	r.Notes = append(r.Notes, "fit: "+fit.Classify())
	if fit.LooksExponential() {
		r.Pass = false
		r.Notes = append(r.Notes, "TD simulation of a linear-time machine blew up exponentially")
	}

	// Fragment check: this is exactly the Corollary 4.6 shape.
	c, err := machine.Compile(machine.Dyck())
	if err != nil {
		return failed(r, err)
	}
	prog := parser.MustParse(c.RulesSrc)
	rep := analysis.Analyze(prog).Classify()
	r.Notes = append(r.Notes, "compiled fragment: "+rep.Fragment.String()+" — "+rep.Fragment.Complexity())
	if rep.Fragment != analysis.Full {
		r.Pass = false
	}
	return r
}

// E8SequentialQBF — Theorem 4.5: sequential TD is EXPTIME-complete via
// alternation. A fixed 7-rule sequential program evaluates QBF supplied as
// data; on the alternating ∀∃ family the work grows exponentially in the
// number of quantifier blocks, with no concurrency anywhere.
func E8SequentialQBF(cfg Config) Report {
	r := Report{ID: "E8", Title: "Thm 4.5: sequential TD alternation (QBF as data, fixed program)", Pass: true}
	prog := parser.MustParse(machine.QBFRules)
	rep := analysis.Analyze(prog).Classify()
	r.Notes = append(r.Notes, "fragment: "+rep.Fragment.String()+" — "+rep.Fragment.Complexity())
	if rep.Fragment != analysis.Sequential {
		r.Pass = false
	}

	ks := pick(cfg.Quick, []int{1, 2, 3}, []int{1, 2, 3, 4, 5, 6})
	series := complexity.Sweep("alternating QBF, k ∀∃ blocks", ks, func(k int) (float64, map[string]float64) {
		q := machine.AlternatingQBF(k)
		if !q.Eval() {
			r.Pass = false
			return 0, nil
		}
		facts, err := machine.QBFFacts(q)
		if err != nil {
			r.Pass = false
			return 0, nil
		}
		return mustSteps(machine.QBFRules+facts, machine.QBFGoal, defaultOpts(), true, &r.Pass), nil
	})
	fit := complexity.FitGrowth(series)
	r.Tables = append(r.Tables, complexity.SeriesTable(series))
	r.Notes = append(r.Notes, "fit: "+fit.Classify())
	if !fit.LooksExponential() {
		r.Pass = false
		r.Notes = append(r.Notes, "expected exponential growth from alternation")
	}

	// Cross-check TD answers against the oracle on random formulas.
	bad := 0
	rng := newRng(3)
	for i := 0; i < 10; i++ {
		q := machine.RandomQBF(rng, 3, 3, 2, 0.5)
		facts, err := machine.QBFFacts(q)
		if err != nil {
			bad++
			continue
		}
		res, _, err := prove(machine.QBFRules+facts, machine.QBFGoal, defaultOpts())
		if err != nil || res.Success != q.Eval() {
			bad++
		}
	}
	if bad > 0 {
		r.Pass = false
		r.Notes = append(r.Notes, fmt.Sprintf("%d/10 random QBF mismatches", bad))
	} else {
		r.Notes = append(r.Notes, "10/10 random QBF agree with oracle")
	}
	return r
}

// E10FullyBounded — Section 5: the practical fragment. The iterated lab
// protocol (sequential tail recursion) scales polynomially in the number
// of work items, while the same fragment still expresses guess-and-check
// (SAT): the worst case is a search-tree exponential, not a process-tree
// one. Both programs classify as fully bounded.
func E10FullyBounded(cfg Config) Report {
	r := Report{ID: "E10", Title: "Section 5: fully bounded TD (iteration; guess-and-check)", Pass: true}

	// Practical side: iterated protocol over n items, polynomial.
	iter := `
		protocol(X) :- ins.prepped(X), prepped(X), ins.measured(X), measured(X), ins.finished(X).
		drain :- todo(X), del.todo(X), protocol(X), drain.
		drain :- empty.todo.
	`
	progIter := parser.MustParse(iter)
	repIter := analysis.Analyze(progIter).Classify()
	r.Notes = append(r.Notes, "iterated protocol fragment: "+repIter.Fragment.String())
	if repIter.Fragment > analysis.FullyBounded {
		r.Pass = false
	}
	sizes := pick(cfg.Quick, []int{4, 8, 16}, []int{4, 8, 16, 32, 64})
	series := complexity.Sweep("iterated protocol, n items", sizes, func(n int) (float64, map[string]float64) {
		var b strings.Builder
		b.WriteString(iter)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "todo(item%d).\n", i)
		}
		return mustSteps(b.String(), "drain", defaultOpts(), true, &r.Pass), nil
	})
	fitIter := complexity.FitGrowth(series)
	r.Tables = append(r.Tables, complexity.SeriesTable(series))
	r.Notes = append(r.Notes, "iteration fit: "+fitIter.Classify())
	if !fitIter.LooksPolynomial() {
		r.Pass = false
	}

	// Hardness side: the same fragment expresses SAT; pigeonhole blows up.
	progSAT := parser.MustParse(machine.SATRules)
	repSAT := analysis.Analyze(progSAT).Classify()
	r.Notes = append(r.Notes, "SAT program fragment: "+repSAT.Fragment.String())
	if repSAT.Fragment > analysis.FullyBounded {
		r.Pass = false
	}
	phSizes := pick(cfg.Quick, []int{1, 2}, []int{1, 2, 3})
	satSeries := complexity.Sweep("pigeonhole(n) via SAT rules (unsat)", phSizes, func(n int) (float64, map[string]float64) {
		c := machine.PigeonholeCNF(n)
		facts, err := machine.SATFacts(c)
		if err != nil {
			r.Pass = false
			return 0, nil
		}
		opts := defaultOpts()
		opts.Table = false // raw search: the exponential is the point
		opts.LoopCheck = false
		return mustSteps(machine.SATRules+facts, machine.SATGoal, opts, false, &r.Pass), nil
	})
	r.Tables = append(r.Tables, complexity.SeriesTable(satSeries))
	if complexity.Ratio(satSeries) < 8 {
		r.Pass = false
		r.Notes = append(r.Notes, "pigeonhole search did not blow up as expected")
	}
	return r
}

// E11InsOnlyDatalog — the Section 5 remark: with tuple testing and
// insertion but no deletion, TD workflows compute Datalog-style fixpoints
// and classical optimizations apply. Two demonstrations: (a) query
// answering on transitive closure agrees between the TD engine and the
// semi-naive Datalog baseline; (b) an accumulate-only scientific workflow
// (insertions never retracted, like the genome center's experiment log)
// scales linearly.
func E11InsOnlyDatalog(cfg Config) Report {
	r := Report{ID: "E11", Title: "Ins-only TD vs classical Datalog (Section 5 remark)", Pass: true}
	sizes := pick(cfg.Quick, []int{8, 16}, []int{8, 16, 32, 64})
	tab := complexity.NewTable("transitive closure: TD query vs semi-naive Datalog vs magic sets",
		"n (chain)", "TD steps", "datalog fires", "magic fires", "answers agree")
	for _, n := range sizes {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "edge(n%d, n%d).\n", i, i+1)
		}
		src := b.String() + `
			reach(X, Y) :- edge(X, Y).
			reach(X, Y) :- edge(X, Z), reach(Z, Y).
		`
		prog := parser.MustParse(src)
		d, _ := db.FromFacts(prog.Facts)
		g := parser.MustParseGoal(fmt.Sprintf("reach(n0, n%d)", n), prog.VarHigh)
		res, err := engine.New(prog, defaultOpts()).Prove(g, d)
		if err != nil || !res.Success {
			r.Pass = false
			continue
		}
		dlProg, err := datalogFromSrc(src)
		if err != nil {
			return failed(r, err)
		}
		model, err := evalDatalog(dlProg)
		if err != nil {
			return failed(r, err)
		}
		// Magic sets: the same query, bound on both arguments.
		q := term.NewAtom("reach", term.NewSym("n0"), term.NewSym(fmt.Sprintf("n%d", n)))
		magicAnswers, magicModel, err := datalog.MagicEval(dlProg, q)
		if err != nil {
			return failed(r, err)
		}
		agree := model.Contains(atom2("reach", "n0", fmt.Sprintf("n%d", n))) && len(magicAnswers) == 1
		tab.AddRow(n, res.Stats.Steps, model.Stats.RuleFires, magicModel.Stats.RuleFires, agree)
		if !agree {
			r.Pass = false
		}
	}
	r.Tables = append(r.Tables, tab)
	r.Notes = append(r.Notes, "magic sets (the optimization the paper names) focuses bottom-up evaluation on the query")

	// Accumulate-only workflow: linear scaling, classified ins-only.
	scan := `
		scan(I) :- raw(I, V), ins.res(I, V), succ(I, J), scan(J).
		scan(I) :- norecs(I).
	`
	progScan := parser.MustParse(scan)
	repScan := analysis.Analyze(progScan).Classify()
	r.Notes = append(r.Notes, "accumulate-only fragment: "+repScan.Fragment.String())
	if repScan.Fragment != analysis.InsOnly {
		r.Pass = false
	}
	series := complexity.Sweep("accumulate-only scan, n records", pick(cfg.Quick, []int{8, 16}, []int{8, 16, 32, 64, 128}), func(n int) (float64, map[string]float64) {
		var b strings.Builder
		b.WriteString(scan)
		for i := 1; i <= n; i++ {
			fmt.Fprintf(&b, "raw(%d, %d). succ(%d, %d).\n", i, i*10, i, i+1)
		}
		fmt.Fprintf(&b, "norecs(%d).\n", n+1)
		return mustSteps(b.String(), "scan(1)", defaultOpts(), true, &r.Pass), nil
	})
	fit := complexity.FitGrowth(series)
	r.Tables = append(r.Tables, complexity.SeriesTable(series))
	r.Notes = append(r.Notes, "accumulate-only fit: "+fit.Classify())
	if !fit.LooksPolynomial() || fit.PolyDegree > 1.6 {
		r.Pass = false
	}
	return r
}

// E12Isolation — Section 2's isolation property: iso(t1) | ... | iso(tn)
// executes serializably. Every reachable final state of n isolated counter
// increments equals the serial outcome, and money is conserved across
// concurrent isolated transfers; without iso, anomalous finals appear.
func E12Isolation(cfg Config) Report {
	r := Report{ID: "E12", Title: "Isolation and serializability (Section 2)", Pass: true}
	counterSrc := `
		counter(0).
		bump :- counter(N), del.counter(N), add(N, 1, M), ins.counter(M).
	`
	prog := parser.MustParse(counterSrc)
	tab := complexity.NewTable("reachable final counters", "n bumps", "iso finals", "bare finals", "iso steps", "bare steps")
	// Enumerating every interleaving of n unisolated bumps is factorial in
	// n; n = 3 already shows the anomaly set while staying tractable.
	ns := pick(cfg.Quick, []int{2}, []int{2, 3})
	for _, n := range ns {
		isoGoal := strings.TrimSuffix(strings.Repeat("iso(bump) | ", n), " | ")
		bareGoal := strings.TrimSuffix(strings.Repeat("bump | ", n), " | ")
		isoFinals, isoSteps, err1 := finalCounters(prog, isoGoal)
		bareFinals, bareSteps, err2 := finalCounters(prog, bareGoal)
		if err1 != nil || err2 != nil {
			r.Pass = false
			continue
		}
		tab.AddRow(n, fmt.Sprint(isoFinals), fmt.Sprint(bareFinals), isoSteps, bareSteps)
		// Isolated: only the serial outcome n.
		if len(isoFinals) != 1 || isoFinals[0] != int64(n) {
			r.Pass = false
			r.Notes = append(r.Notes, fmt.Sprintf("iso n=%d: finals %v", n, isoFinals))
		}
		// Unisolated: lost updates appear (some final < n).
		anomaly := false
		for _, f := range bareFinals {
			if f < int64(n) {
				anomaly = true
			}
		}
		if !anomaly {
			r.Pass = false
			r.Notes = append(r.Notes, fmt.Sprintf("bare n=%d: no lost update observed", n))
		}
	}
	r.Tables = append(r.Tables, tab)
	r.Notes = append(r.Notes, "isolated composition reaches exactly the serial outcome; bare composition also reaches lost-update anomalies")
	return r
}

func finalCounters(prog parserProg, goal string) ([]int64, int64, error) {
	g := parser.MustParseGoal(goal, prog.VarHigh)
	d, err := db.FromFacts(prog.Facts)
	if err != nil {
		return nil, 0, err
	}
	sols, res, err := engine.New(prog, defaultOpts()).Solutions(g, d, 0)
	if err != nil {
		return nil, 0, err
	}
	seen := map[int64]bool{}
	for _, s := range sols {
		for _, row := range s.Final.Tuples("counter", 1) {
			seen[row[0].IntVal()] = true
		}
	}
	out := make([]int64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sortInt64(out)
	return out, res.Stats.Steps, nil
}

func sortInt64(xs []int64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
