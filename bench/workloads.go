package main

import (
	"fmt"
	"strings"

	td "repro"
	"repro/internal/db"
	"repro/internal/workflow"
)

// op is one generated request and what a correct server must answer.
type op struct {
	query  bool   // QUERY (enumerate all solutions); otherwise EXEC
	goal   string // goal text as sent on the wire
	expect int    // QUERY only: the number of solutions the truth demands
}

// predArity names a base relation.
type predArity struct {
	pred  string
	arity int
}

// workload is one traffic mix. The names are fixed: later issues refer to
// them. Every generated key is an integer, so the symbol interner does not
// grow during a run.
type workload struct {
	name string
	// ops and soloOps are the measured phase's op counts for a run of
	// runSeconds: ops with every connection busy (throughput), then soloOps on
	// one connection (latency). They are fixed (not "as many as fit") so that
	// both sides of a comparison do the same work and, on the accumulate-only
	// workloads, grow the same database. Sized so the seed takes about
	// runSeconds for the two together.
	ops, soloOps int
	// traceOps is the op count of each one-connection run (traced, untraced
	// twin, in-process).
	traceOps int
	// rates are the open-loop offered rates in ops/s: 50% and 80% of the
	// seed's closed-loop throughput on the recording machine. Constants, so
	// a faster build is offered the same load.
	rates   [2]int
	durable bool   // SnapshotPath+WALPath, fsync before ack, 1 MiB checkpoints
	table   string // ServerOptions.Table
	program func() (string, error)
	gen     func(seed uint64, i int64) op
	// verify checks the final database against the acknowledged work: acked
	// is every EXEC acknowledged since the server was built.
	verify func(d *db.DB, acked int64, st td.ServerStats) error
	probe  predArity // relation probed for db.probe_ns
	scan   predArity // relation scanned, first argument bound, for db.scan_first_arg_ns
}

const (
	bankAccounts = 16384
	bankBalance  = 1_000_000
	labAgents    = 7
	analyzeBase  = 1024 // base samples, 8 readings each
	freshBase    = 1_000_000
)

// mix is splitmix64 over (seed, op index): op i of a seed is the same
// request whichever connection draws it.
func mix(seed uint64, i int64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(i)*0xD1B54A32D192ED03 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

var workloads = []*workload{
	{
		name: "bank_mem", ops: 120_000, soloOps: 75_000, traceOps: 10_000, rates: [2]int{8000, 12800},
		program: bankProgram, gen: bankOp, verify: bankVerify,
		probe: predArity{"account", 2}, scan: predArity{"account", 2},
	},
	{
		name: "bank_durable", ops: 32_000, soloOps: 15_000, traceOps: 5_000, rates: [2]int{2200, 3500}, durable: true,
		program: bankProgram, gen: bankOp, verify: bankVerify,
		probe: predArity{"account", 2}, scan: predArity{"account", 2},
	},
	{
		name: "lab_flow", ops: 15_000, soloOps: 13_000, traceOps: 5_000, rates: [2]int{1100, 1750},
		program: labProgram, gen: labOp, verify: labVerify,
		probe: predArity{"done_mapping_prep", 1}, scan: predArity{"qualified", 2},
	},
	{
		name: "analyze_mix", ops: 220_000, soloOps: 130_000, traceOps: 10_000, rates: [2]int{16000, 26000}, table: "all",
		program: analyzeProgram, gen: analyzeOp, verify: analyzeVerify,
		probe: predArity{"reading", 2}, scan: predArity{"sample_reading", 2},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// bank: 16 384 integer-keyed accounts and the transfer rules of the
// repository's tdserver bank demo.

func bankProgram() (string, error) {
	var b strings.Builder
	for i := 0; i < bankAccounts; i++ {
		fmt.Fprintf(&b, "account(%d, %d).\n", i, bankBalance)
	}
	b.WriteString(`
withdraw(Amt, A) :- account(A, B), B >= Amt, del.account(A, B),
                    sub(B, Amt, C), ins.account(A, C).
deposit(Amt, A)  :- account(A, B), del.account(A, B),
                    add(B, Amt, C), ins.account(A, C).
transfer(Amt, A, B) :- withdraw(Amt, A), deposit(Amt, B).
`)
	return b.String(), nil
}

func bankOp(seed uint64, i int64) op {
	h := mix(seed, i)
	a := h % bankAccounts
	b := (a + 1 + (h>>24)%(bankAccounts-1)) % bankAccounts // b != a
	return op{goal: fmt.Sprintf("iso(transfer(1,%d,%d))", a, b)}
}

func bankVerify(d *db.DB, acked int64, st td.ServerStats) error {
	rows := d.Tuples("account", 2)
	var sum int64
	for _, r := range rows {
		sum += r[1].IntVal()
	}
	if len(rows) != bankAccounts || sum != bankAccounts*bankBalance {
		return fmt.Errorf("bank: %d accounts hold %d, want %d accounts holding %d", len(rows), sum, bankAccounts, int64(bankAccounts*bankBalance))
	}
	if st.Commits != acked {
		return fmt.Errorf("bank: server counts %d commits, clients saw %d acknowledged", st.Commits, acked)
	}
	return nil
}

// lab: the paper's genome-laboratory mapping workflow, one whole nested
// concurrent workflow instance per transaction, over a shared agent pool.

func labProgram() (string, error) {
	rules, err := workflow.Compile(workflow.GenomeSpec())
	if err != nil {
		return "", err
	}
	return rules + workflow.AgentFacts(map[string]int{
		"technician": 2, "thermocycler": 1, "gel_rig": 1, "camera": 1, "analyst": 2,
	}), nil
}

// labOp's items are fresh ids in arrival order; the seed only picks the id
// range, because the workflow treats every item alike.
func labOp(seed uint64, i int64) op {
	return op{goal: fmt.Sprintf("iso(wf_mapping(%d))", freshBase*int64(1+seed%1000)+i)}
}

func labVerify(d *db.DB, acked int64, _ td.ServerStats) error {
	done := []string{
		"done_mapping_prep", "done_mapping_digest", "done_mapping_gelstep", "done_mapping_analyze",
		"done_gel_load", "done_gel_run", "done_gel_photo",
	}
	for _, p := range done {
		if n := d.Count(p, 1); int64(n) != acked {
			return fmt.Errorf("lab: %s holds %d items, %d were acknowledged", p, n, acked)
		}
	}
	if n := d.Count("available", 1); n != labAgents {
		return fmt.Errorf("lab: %d/%d agents back in the pool", n, labAgents)
	}
	if n := d.Count("doing", 3); n != 0 {
		return fmt.Errorf("lab: %d tasks still mid-flight", n)
	}
	return nil
}

// analyze: 90% tabled reads of hot/1 over the 1 024 base samples beside 10%
// writes of fresh readings into the same relations. Base samples never
// change, so the truth of every read is known: sample K is hot iff K mod 4
// is 0 (workflow.DefaultAnalyze), and fresh readings stay below the
// threshold.

func analyzeProgram() (string, error) {
	return workflow.AnalyzeSource(workflow.DefaultAnalyze(analyzeBase)), nil
}

func analyzeOp(seed uint64, i int64) op {
	h := mix(seed, i)
	if h%10 == 0 {
		n := freshBase + i
		return op{goal: fmt.Sprintf("ins.sample_reading(%d,%d), ins.reading(%d,%d)", n, n, n, (h>>8)%900)}
	}
	k := 1 + (h>>8)%analyzeBase
	o := op{query: true, goal: fmt.Sprintf("hot(s%d)", k)}
	if k%4 == 0 {
		o.expect = 1
	}
	return o
}

func analyzeVerify(d *db.DB, acked int64, st td.ServerStats) error {
	if st.MemoEvictions != 0 {
		return fmt.Errorf("analyze: %d answer tables were evicted; the workload is sized to fit the memo store", st.MemoEvictions)
	}
	want := int64(analyzeBase*8) + acked
	for _, p := range []string{"reading", "sample_reading"} {
		if n := d.Count(p, 2); int64(n) != want {
			return fmt.Errorf("analyze: %s holds %d tuples, want %d (base + acknowledged writes)", p, n, want)
		}
	}
	return nil
}
