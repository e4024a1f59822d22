package main

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	td "repro"
	"repro/internal/engine"
)

// repl runs an interactive session: each input line is a TD goal proved
// against the current database (committed goals advance the state), or one
// of the commands below.
//
//	:db            print the current database
//	:facts F.      assert fact(s) directly
//	:classify      print the fragment classification
//	:reset         reset the database to the program's facts
//	:trace on|off  toggle witness traces
//	:help          this text
//	:quit          exit
func repl(prog *td.Program, d *td.Database, in io.Reader, out io.Writer) error {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	trace := false
	varHigh := prog.VarHigh
	fmt.Fprintln(out, "Transaction Datalog REPL — goals end with '.', :help for commands")
	for {
		fmt.Fprint(out, "td> ")
		if !scanner.Scan() {
			fmt.Fprintln(out)
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
			continue
		case line == ":quit" || line == ":q":
			return nil
		case line == ":help":
			fmt.Fprintln(out, "  <goal>.         prove a goal; on success the database advances")
			fmt.Fprintln(out, "  :db             print the current database")
			fmt.Fprintln(out, "  :facts f(a).    assert facts")
			fmt.Fprintln(out, "  :classify       fragment classification of the loaded program")
			fmt.Fprintln(out, "  :reset          reset database to the program's facts")
			fmt.Fprintln(out, "  :trace on|off   toggle witness traces")
			fmt.Fprintln(out, "  :quit           exit")
		case line == ":db":
			fmt.Fprint(out, d)
		case line == ":classify":
			rep := td.Classify(prog)
			fmt.Fprintf(out, "fragment: %s\ncomplexity: %s\n", rep.Fragment, rep.Fragment.Complexity())
		case line == ":reset":
			fresh, err := td.DatabaseFor(prog)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			d = fresh
			fmt.Fprintln(out, "database reset")
		case line == ":trace on":
			trace = true
		case line == ":trace off":
			trace = false
		case strings.HasPrefix(line, ":facts "):
			sub, err := td.Parse(strings.TrimPrefix(line, ":facts "))
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			if len(sub.Rules) > 0 {
				fmt.Fprintln(out, "error: :facts accepts facts only")
				continue
			}
			for _, f := range sub.Facts {
				d.Insert(f.Pred, f.Args)
			}
			d.ResetTrail()
			fmt.Fprintf(out, "asserted %d fact(s)\n", len(sub.Facts))
		case strings.HasPrefix(line, ":"):
			fmt.Fprintln(out, "unknown command; :help")
		default:
			g, high, err := td.ParseGoal(line, varHigh)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			varHigh = high
			opts := engine.DefaultOptions()
			opts.Trace = trace
			res, err := td.NewEngine(prog, opts).Prove(g, d)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			if res.Success {
				fmt.Fprintf(out, "yes (%d steps)\n", res.Stats.Steps)
				printBindings(out, res.Bindings)
				for _, e := range res.Trace {
					fmt.Fprintln(out, "   ", e)
				}
			} else {
				fmt.Fprintf(out, "no (%d steps)\n", res.Stats.Steps)
			}
		}
	}
}
