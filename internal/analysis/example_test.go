package analysis_test

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/parser"
)

// Classifying programs along the paper's complexity landscape.
func ExampleAnalyze() {
	programs := []string{
		// Nonrecursive: inside PTIME.
		`t :- p(X), del.p(X), ins.q(X).`,
		// Iteration only: fully bounded TD.
		`drain :- todo(X), del.todo(X), ins.done(X), drain.
		 drain :- empty.todo.`,
		// Non-tail recursion, no concurrency: sequential TD.
		`p :- q, p, r.
		 q :- ins.a.
		 r :- del.a.`,
		// Recursion under concurrent composition: full TD.
		`simulate :- item(X), del.item(X), (work(X) | simulate).
		 work(X) :- ins.done(X).`,
	}
	for _, src := range programs {
		prog, err := parser.Parse(src)
		if err != nil {
			panic(err)
		}
		fmt.Println(analysis.Analyze(prog).Classify().Fragment)
	}
	// Output:
	// nonrecursive TD
	// fully bounded TD
	// sequential TD
	// full TD
}
