package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the tests hold the program to.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runAt runs the benchmark at 1/100 of its op counts and returns its result
// line. No wall-clock value is asserted anywhere: the tests check names,
// units, counts of lines and the output checks' verdicts.
func runAt(t *testing.T, s spec, args ...string) resultLine {
	t.Helper()
	var out bytes.Buffer
	args = append(args, "-seconds", fmt.Sprint(float64(s.RunSeconds)/100), "-out", t.TempDir())
	if code := run(args, &out); code != 0 {
		t.Fatalf("bench %v: exit code %d\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result line: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestSmoke runs every workload with the full ledger and requires every
// metric BENCHMARK.json names to be printed exactly once per workload, with
// its unit, nothing to be printed that BENCHMARK.json does not name, and
// every output check to pass.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	if s.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds is %d, the program sizes its runs for %d", s.RunSeconds, runSeconds)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(s.Workloads), len(workloads))
	}
	dir := t.TempDir()
	var out bytes.Buffer
	record := filepath.Join(dir, "record.json")
	if code := run([]string{"-seconds", fmt.Sprint(float64(s.RunSeconds) / 100), "-out", dir, "-json", record}, &out); code != 0 {
		t.Fatalf("exit code %d\n%s", code, out.String())
	}
	type key struct{ workload, metric string }
	seen := map[key]int{}
	units := map[key]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if strings.Contains(line, "CHECK FAILED") {
			t.Error(line)
		}
		if len(f) == 5 && strings.HasPrefix(f[4], "n=") {
			seen[key{f[0], f[1]}]++
			units[key{f[0], f[1]}] = f[3]
		}
	}
	want := map[string]bool{}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloads[i].name)
		}
		for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
			want[m.Name] = true
			k := key{w.Name, m.Name}
			if seen[k] != 1 {
				t.Errorf("%s: %s printed %d times, want once", w.Name, m.Name, seen[k])
			} else if units[k] != m.Unit {
				t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", w.Name, m.Name, units[k], m.Unit)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".jsonl")); err != nil {
			t.Errorf("%s: traced run was not written out: %v", w.Name, err)
		}
	}
	for k := range seen {
		if !want[k.metric] {
			t.Errorf("%s: %s is printed but BENCHMARK.json does not name it", k.workload, k.metric)
		}
	}
	data, err := os.ReadFile(record)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(data)), "\"claim\": null\n}") {
		t.Errorf("the record does not end with \"claim\": null")
	}
}

// TestResultLine checks the last line's metric set in both driver modes:
// --trace 0 carries exactly the end-to-end metrics, --trace 1 exactly the
// per-layer ones.
func TestResultLine(t *testing.T) {
	s := readSpec(t)
	for trace, want := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		res := runAt(t, s, "--workload", "analyze_mix", "--seed", "7", "--trace", fmt.Sprint(trace))
		if len(res.Metrics) != len(want) {
			t.Errorf("--trace %d: %d metrics on the result line, want %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("--trace %d: metric %s: got %+v (present=%v), want unit %q", trace, m.Name, got, ok, m.Unit)
			}
		}
	}
}

// TestSeedIsTheInput checks that a seed fixes the generated requests and
// that different seeds generate different ones.
func TestSeedIsTheInput(t *testing.T) {
	for _, w := range workloads {
		same, differ := true, false
		for i := int64(0); i < 1000; i++ {
			same = same && w.gen(3, i) == w.gen(3, i)
			differ = differ || w.gen(3, i) != w.gen(4, i)
		}
		if !same {
			t.Errorf("%s: the same seed generated different requests", w.name)
		}
		if !differ {
			t.Errorf("%s: seeds 3 and 4 generated the same requests", w.name)
		}
	}
}
