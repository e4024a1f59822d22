// Package obs is a zero-dependency observability layer for the Transaction
// Datalog engine: a metrics registry (atomic counters, gauges, and lock-free
// fixed-bucket histograms) with a Prometheus text exposition writer, plus
// structured execution spans (span.go) and pluggable span sinks (sink.go).
//
// The package deliberately depends only on the standard library and is
// imported by internal/engine and internal/server; it must never import
// either of them.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n should be non-negative; this is not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram bucket layout: bucket i (0 <= i < histFinite) counts
// observations v with v <= 1<<i, cumulative-exclusive of earlier buckets;
// the last bucket is the +Inf overflow. With histFinite = 27 the finite
// range covers 1µs .. ~67s, which brackets every latency this system
// produces (fsync, per-verb, per-commit) at ~2x resolution.
const (
	histFinite  = 27
	histBuckets = histFinite + 1
)

// Histogram is a lock-free fixed-bucket histogram of int64 samples
// (conventionally microseconds). Observe and Quantile are allocation-free
// and safe for concurrent use.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
}

// bucketFor returns the index of the smallest bucket whose upper bound is
// >= v: ceil(log2(v)) for v >= 2, clamped to the overflow bucket.
func bucketFor(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1)) // ceil(log2(v))
	if b >= histFinite {
		return histFinite // +Inf
	}
	return b
}

// BucketBound returns the upper bound of bucket i in the same unit as the
// observed samples; the overflow bucket reports math.MaxInt64.
func BucketBound(i int) int64 {
	if i >= histFinite {
		return math.MaxInt64
	}
	return int64(1) << uint(i)
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.counts[bucketFor(v)].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observed samples.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile returns the upper bound of the bucket containing the q-th
// quantile (0 < q <= 1), i.e. an upper estimate with ~2x resolution.
// Returns 0 when no samples have been observed. A quantile that lands in
// the +Inf overflow bucket reports that bucket's lower bound (the largest
// finite bucket bound): the interval is unbounded above, so the lower
// bound is the only honest point estimate. O(histBuckets), no allocation,
// no locking.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	if target > total {
		// q > 1, or float rounding pushed the rank past the sample count.
		// Clamp so the answer is the bucket of the largest observed sample,
		// never a spurious fall-through into the overflow bucket.
		target = total
	}
	var cum int64
	for i := 0; i < histFinite; i++ {
		cum += h.counts[i].Load()
		if cum >= target {
			return BucketBound(i)
		}
	}
	// The rank lands in the overflow bucket: report its lower bound.
	return BucketBound(histFinite - 1)
}

// metricKind discriminates how a registered series is rendered.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
	kindGaugeFuncF
	kindFamilyFunc
)

// Sample is one labeled sample produced by a FamilyFunc at scrape time.
type Sample struct {
	Labels string // rendered label pairs without braces, e.g. `pred="path/2"`
	Value  int64
}

type series struct {
	family string // metric family name, e.g. td_commits_total
	labels string // rendered label pairs without braces, e.g. `verb="EXEC"`, may be ""
	help   string
	kind   metricKind
	ftyp   string // rendered TYPE for kindFamilyFunc: "counter" or "gauge"
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() int64
	fnf    func() float64
	sfn    func() []Sample
}

// typeName maps a series to its Prometheus TYPE keyword.
func (s *series) typeName() string {
	switch s.kind {
	case kindGauge, kindGaugeFunc, kindGaugeFuncF:
		return "gauge"
	case kindHistogram:
		return "histogram"
	case kindFamilyFunc:
		return s.ftyp
	}
	return "counter"
}

// Registry holds registered metric series and renders them in Prometheus
// text exposition format. Registration is expected at setup time; WriteText
// may be called concurrently with metric updates.
type Registry struct {
	mu     sync.Mutex
	series []*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// add registers a series. Re-registering a family under a different type
// or help string, or re-registering the exact same (family, labels) pair,
// is a programming error and panics deterministically: the text exposition
// would otherwise render a malformed family whose shape depends on
// registration order. Multiple series of one family with distinct label
// sets — the normal labeled-metric case — are fine.
func (r *Registry) add(s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ex := range r.series {
		if ex.family != s.family {
			continue
		}
		if ex.typeName() != s.typeName() {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s, already registered as %s",
				s.family, s.typeName(), ex.typeName()))
		}
		if ex.help != s.help {
			panic(fmt.Sprintf("obs: metric %s re-registered with different help (%q, already %q)",
				s.family, s.help, ex.help))
		}
		if ex.labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate metric series %s{%s}", s.family, s.labels))
		}
	}
	r.series = append(r.series, s)
}

// Counter registers and returns a counter with no labels.
func (r *Registry) Counter(family, help string) *Counter {
	return r.CounterL(family, help, "")
}

// CounterL registers a counter with a rendered label set such as
// `cause="read_write"`.
func (r *Registry) CounterL(family, help, labels string) *Counter {
	c := &Counter{}
	r.add(&series{family: family, labels: labels, help: help, kind: kindCounter, c: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape time.
func (r *Registry) CounterFunc(family, help string, fn func() int64) {
	r.add(&series{family: family, help: help, kind: kindCounterFunc, fn: fn})
}

// CounterFuncL is CounterFunc with a rendered label set.
func (r *Registry) CounterFuncL(family, help, labels string, fn func() int64) {
	r.add(&series{family: family, labels: labels, help: help, kind: kindCounterFunc, fn: fn})
}

// Gauge registers and returns a gauge with no labels.
func (r *Registry) Gauge(family, help string) *Gauge {
	g := &Gauge{}
	r.add(&series{family: family, help: help, kind: kindGauge, g: g})
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(family, help string, fn func() int64) {
	r.add(&series{family: family, help: help, kind: kindGaugeFunc, fn: fn})
}

// GaugeFuncFL registers a float-valued gauge with a rendered label set, read
// from fn at scrape time — for ratios and fractions, which the integer
// instruments cannot express.
func (r *Registry) GaugeFuncFL(family, help, labels string, fn func() float64) {
	r.add(&series{family: family, labels: labels, help: help, kind: kindGaugeFuncF, fnf: fn})
}

// Histogram registers and returns a histogram with no labels.
func (r *Registry) Histogram(family, help string) *Histogram {
	return r.HistogramL(family, help, "")
}

// HistogramL registers a histogram with a rendered label set.
func (r *Registry) HistogramL(family, help, labels string) *Histogram {
	h := &Histogram{}
	r.add(&series{family: family, labels: labels, help: help, kind: kindHistogram, h: h})
	return h
}

// FamilyFunc registers a whole metric family whose label sets are not known
// at registration time: fn is called at scrape time and returns one sample
// per live label set (e.g. td_prover_pred_us{pred=...}, one series per
// predicate the prover has dispatched so far). typ is the exposed TYPE,
// "counter" or "gauge". Samples render sorted by label set.
func (r *Registry) FamilyFunc(family, help, typ string, fn func() []Sample) {
	if typ != "counter" && typ != "gauge" {
		panic(fmt.Sprintf("obs: FamilyFunc %s: type %q is not counter or gauge", family, typ))
	}
	r.add(&series{family: family, help: help, kind: kindFamilyFunc, ftyp: typ, sfn: fn})
}

// FamilyInfo describes one registered metric family.
type FamilyInfo struct {
	Name string
	Help string
	Type string // "counter", "gauge", or "histogram"
}

// Families returns one entry per registered family in first-registration
// order. It exists for metadata audits (naming conventions, help coverage)
// in tests; the collision check in add guarantees every series of a family
// agrees on Help and Type.
func (r *Registry) Families() []FamilyInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool, len(r.series))
	out := make([]FamilyInfo, 0, len(r.series))
	for _, s := range r.series {
		if seen[s.family] {
			continue
		}
		seen[s.family] = true
		out = append(out, FamilyInfo{Name: s.family, Help: s.help, Type: s.typeName()})
	}
	return out
}

// WriteText renders every registered series in Prometheus text exposition
// format (version 0.0.4). Series of the same family are grouped under one
// HELP/TYPE header; families appear in first-registration order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	all := make([]*series, len(r.series))
	copy(all, r.series)
	r.mu.Unlock()

	// Stable grouping by family, preserving first-seen order.
	order := make([]string, 0, len(all))
	byFam := make(map[string][]*series, len(all))
	for _, s := range all {
		if _, ok := byFam[s.family]; !ok {
			order = append(order, s.family)
		}
		byFam[s.family] = append(byFam[s.family], s)
	}
	for _, fam := range order {
		group := byFam[fam]
		first := group[0]
		typ := first.typeName()
		if first.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam, first.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, typ); err != nil {
			return err
		}
		// Deterministic output within a family: sort by label set.
		sort.SliceStable(group, func(i, j int) bool { return group[i].labels < group[j].labels })
		for _, s := range group {
			if err := s.write(w); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *series) write(w io.Writer) error {
	switch s.kind {
	case kindCounter:
		return writeSample(w, s.family, s.labels, s.c.Value())
	case kindGauge:
		return writeSample(w, s.family, s.labels, s.g.Value())
	case kindCounterFunc, kindGaugeFunc:
		return writeSample(w, s.family, s.labels, s.fn())
	case kindGaugeFuncF:
		return writeSampleF(w, s.family, s.labels, s.fnf())
	case kindFamilyFunc:
		samples := s.sfn()
		sort.Slice(samples, func(i, j int) bool { return samples[i].Labels < samples[j].Labels })
		for _, sm := range samples {
			if err := writeSample(w, s.family, sm.Labels, sm.Value); err != nil {
				return err
			}
		}
		return nil
	case kindHistogram:
		var cum int64
		for i := 0; i < histBuckets; i++ {
			cum += s.h.counts[i].Load()
			le := "+Inf"
			if i < histFinite {
				le = fmt.Sprintf("%d", BucketBound(i))
			}
			lbl := `le="` + le + `"`
			if s.labels != "" {
				lbl = s.labels + "," + lbl
			}
			if err := writeSample(w, s.family+"_bucket", lbl, cum); err != nil {
				return err
			}
		}
		if err := writeSample(w, s.family+"_sum", s.labels, s.h.Sum()); err != nil {
			return err
		}
		return writeSample(w, s.family+"_count", s.labels, s.h.Count())
	}
	return nil
}

func writeSample(w io.Writer, name, labels string, v int64) error {
	var err error
	if labels == "" {
		_, err = fmt.Fprintf(w, "%s %d\n", name, v)
	} else {
		_, err = fmt.Fprintf(w, "%s{%s} %d\n", name, labels, v)
	}
	return err
}

func writeSampleF(w io.Writer, name, labels string, v float64) error {
	var err error
	if labels == "" {
		_, err = fmt.Fprintf(w, "%s %g\n", name, v)
	} else {
		_, err = fmt.Fprintf(w, "%s{%s} %g\n", name, labels, v)
	}
	return err
}
