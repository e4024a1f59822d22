package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestBucketFor(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 20, 20}, {1<<20 + 1, 21}, {math.MaxInt64, histFinite},
	}
	for _, c := range cases {
		if got := bucketFor(c.v); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every value must land in a bucket whose bound covers it.
	for v := int64(1); v < 1<<22; v = v*3 + 1 {
		b := bucketFor(v)
		if BucketBound(b) < v {
			t.Fatalf("value %d above its bucket bound %d", v, BucketBound(b))
		}
		if b > 0 && BucketBound(b-1) >= v {
			t.Fatalf("value %d fits in earlier bucket %d", v, b-1)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := &Histogram{}
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", got)
	}
	// 90 samples at ~100µs, 10 at ~10000µs.
	for i := 0; i < 90; i++ {
		h.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10000)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 90*100+10*10000 {
		t.Fatalf("sum = %d", h.Sum())
	}
	p50 := h.Quantile(0.50)
	if p50 < 100 || p50 > 256 {
		t.Errorf("p50 = %d, want ~128 (bucket bound covering 100)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 10000 || p99 > 32768 {
		t.Errorf("p99 = %d, want bucket bound covering 10000", p99)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

// The histogram is the replacement for the old sort-under-mutex quantile
// path: both recording and reading must be allocation-free.
func TestHistogramAllocFree(t *testing.T) {
	h := &Histogram{}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(137) }); n != 0 {
		t.Errorf("Observe allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Quantile(0.99) }); n != 0 {
		t.Errorf("Quantile allocates %.1f times per call, want 0", n)
	}
}

func TestCounterGaugeAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("td_test_total", "test")
	g := r.Gauge("td_test_gauge", "test")
	if n := testing.AllocsPerRun(1000, func() { c.Inc(); g.Set(7) }); n != 0 {
		t.Errorf("counter/gauge updates allocate %.1f times per call, want 0", n)
	}
}

func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("td_commits_total", "committed transactions")
	c.Add(42)
	r.GaugeFunc("td_db_size", "tuples in the head database", func() int64 { return 17 })
	h := r.HistogramL("td_request_latency_us", "per-verb latency", `verb="EXEC"`)
	h.Observe(100)
	h2 := r.HistogramL("td_request_latency_us", "per-verb latency", `verb="PING"`)
	h2.Observe(3)
	ca := r.CounterL("td_conflicts_total", "by cause", `cause="read_write"`)
	ca.Inc()

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP td_commits_total committed transactions\n",
		"# TYPE td_commits_total counter\n",
		"td_commits_total 42\n",
		"# TYPE td_db_size gauge\n",
		"td_db_size 17\n",
		"# TYPE td_request_latency_us histogram\n",
		`td_request_latency_us_bucket{verb="EXEC",le="128"} 1`,
		`td_request_latency_us_bucket{verb="EXEC",le="+Inf"} 1`,
		`td_request_latency_us_sum{verb="EXEC"} 100`,
		`td_request_latency_us_count{verb="PING"} 1`,
		`td_conflicts_total{cause="read_write"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q\n---\n%s", want, out)
		}
	}
	// One TYPE header per family even with multiple label sets.
	if n := strings.Count(out, "# TYPE td_request_latency_us histogram"); n != 1 {
		t.Errorf("family header appears %d times, want 1", n)
	}
	// Histogram buckets must be cumulative and end at the count.
	if !strings.Contains(out, `td_request_latency_us_bucket{verb="EXEC",le="4"} 0`) {
		t.Errorf("low bucket should be 0 before first sample bucket\n%s", out)
	}
}

// Table-driven edge cases for Quantile, including the overflow-bucket
// contract: a quantile landing in the +Inf bucket reports the bucket's
// lower bound (the largest finite bound), never a fabricated midpoint.
func TestHistogramQuantileEdges(t *testing.T) {
	top := BucketBound(histFinite - 1)
	cases := []struct {
		name    string
		samples []int64
		q       float64
		want    int64
	}{
		{"empty", nil, 0.99, 0},
		{"empty p50", nil, 0.50, 0},
		{"single sample p50", []int64{100}, 0.50, 128},
		{"single sample p100", []int64{100}, 1.0, 128},
		{"single sample tiny q", []int64{100}, 0.0001, 128},
		{"single overflow sample", []int64{top + 1}, 0.50, top},
		{"all overflow p99", []int64{top + 1, top * 2, math.MaxInt64}, 0.99, top},
		{"mixed, quantile below overflow", []int64{1, 2, 3, top + 1}, 0.50, 2},
		{"mixed, quantile in overflow", []int64{1, top + 1}, 0.99, top},
		{"q above 1 clamps to max sample", []int64{4, 4, 4}, 1.5, 4},
		{"zero sample", []int64{0}, 0.99, 1},
	}
	for _, c := range cases {
		h := &Histogram{}
		for _, v := range c.samples {
			h.Observe(v)
		}
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("%s: Quantile(%g) = %d, want %d", c.name, c.q, got, c.want)
		}
	}
}

// Quantile must not fall through into the overflow bucket when float
// rounding pushes ceil(q*total) past the sample count.
func TestHistogramQuantileRankClamped(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 1000; i++ {
		h.Observe(3)
	}
	// 0.9999999999999999 * 1000 rounds up past 1000 under ceil.
	if got := h.Quantile(0.9999999999999999); got != 4 {
		t.Errorf("near-1 quantile = %d, want 4 (bucket of the only sample value)", got)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: want panic, got none", what)
		}
	}()
	fn()
}

// Registering the same family with a different type or help, or the exact
// same (family, labels) series twice, must panic deterministically.
// Distinct label sets under one family remain legal.
func TestRegistryCollisions(t *testing.T) {
	r := NewRegistry()
	r.Counter("td_x_total", "things")
	mustPanic(t, "kind collision", func() { r.Gauge("td_x_total", "things") })
	mustPanic(t, "help collision", func() { r.Counter("td_x_total", "other help") })
	mustPanic(t, "duplicate series", func() { r.Counter("td_x_total", "things") })
	mustPanic(t, "histogram over counter", func() { r.Histogram("td_x_total", "things") })
	mustPanic(t, "counterfunc with new help", func() {
		r.CounterFunc("td_x_total", "fresh", func() int64 { return 0 })
	})

	// The legal shape: one family, many label sets, same help and kind.
	r.CounterL("td_y_total", "by cause", `cause="a"`)
	r.CounterL("td_y_total", "by cause", `cause="b"`)
	mustPanic(t, "duplicate labeled series", func() { r.CounterL("td_y_total", "by cause", `cause="a"`) })

	// CounterFunc and Counter are the same exposed type and may share a
	// family (distinct labels).
	r.CounterFuncL("td_y_total", "by cause", `cause="c"`, func() int64 { return 1 })

	// Float and int gauges share the "gauge" type.
	r.Gauge("td_z", "level")
	mustPanic(t, "float gauge duplicate series", func() {
		r.GaugeFuncFL("td_z", "level", "", func() float64 { return 0 })
	})
	r.GaugeFuncFL("td_z", "level", `kind="f"`, func() float64 { return 0.5 })
}

func TestFamilyFunc(t *testing.T) {
	r := NewRegistry()
	r.FamilyFunc("td_prover_pred_us", "prover time by predicate", "counter", func() []Sample {
		return []Sample{
			{Labels: `pred="path/2"`, Value: 42},
			{Labels: `pred="edge/2"`, Value: 7},
		}
	})
	mustPanic(t, "bad type", func() {
		r.FamilyFunc("td_bad", "x", "histogram", func() []Sample { return nil })
	})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Sorted by label set, under one counter header.
	idxEdge := strings.Index(out, `td_prover_pred_us{pred="edge/2"} 7`)
	idxPath := strings.Index(out, `td_prover_pred_us{pred="path/2"} 42`)
	if idxEdge < 0 || idxPath < 0 || idxEdge > idxPath {
		t.Errorf("FamilyFunc samples missing or unsorted:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE td_prover_pred_us counter\n") {
		t.Errorf("FamilyFunc TYPE header missing:\n%s", out)
	}
}

func TestFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("td_a_total", "a")
	r.HistogramL("td_b_us", "b", `verb="EXEC"`)
	r.HistogramL("td_b_us", "b", `verb="PING"`)
	r.GaugeFunc("td_c", "c", func() int64 { return 0 })
	fams := r.Families()
	want := []FamilyInfo{
		{Name: "td_a_total", Help: "a", Type: "counter"},
		{Name: "td_b_us", Help: "b", Type: "histogram"},
		{Name: "td_c", Help: "c", Type: "gauge"},
	}
	if len(fams) != len(want) {
		t.Fatalf("Families() = %v, want %v", fams, want)
	}
	for i := range want {
		if fams[i] != want[i] {
			t.Errorf("Families()[%d] = %v, want %v", i, fams[i], want[i])
		}
	}
}
