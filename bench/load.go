package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	td "repro"
)

const (
	warmOps  = 2000 // fixed warm-up before anything is timed (part of set-up)
	nWindows = 5    // the measured phase is cut into this many windows by op index
	failedNs = math.MaxUint32
	// resubmits bounds how often a client sends a transaction again after the
	// server gave up on it ("conflict: gave up after 16 conflict retries"). A
	// conflict is the retryable outcome of optimistic concurrency control, so
	// a synchronous session backs off and resubmits; the op's latency covers
	// every submission and pause, and the give-up still counts against
	// ok_share. The pause matters: see README.md, "Give-ups".
	resubmits = 4
	backoff   = 500 * time.Microsecond
)

// instance is one server built for one workload, listening on a loopback
// TCP port, with the synchronous connections that drive it.
type instance struct {
	w       *workload
	seed    uint64
	srv     *td.Server
	clients []*td.ServerClient
	dir     string // durable files; "" for an in-memory server

	// next is the next unused op index. Every op an instance ever runs —
	// warm-up included — draws its own index, so fresh ids never repeat.
	next atomic.Int64
	// acked counts EXECs acknowledged since the server was built; maxVer is
	// the highest commit version any acknowledgment carried.
	acked  atomic.Int64
	maxVer atomic.Uint64

	mu   sync.Mutex
	errs map[string]int // failed submissions by error text (failure path only)
}

// setup builds the server (parse + vet + plan the program, install its
// facts, open the store), listens, dials conns connections and runs the
// warm-up. The time it returns is the workload's set-up time. A sink makes it
// the traced run's server.
func setup(w *workload, cfg *config, src string, conns int, sink *wideSink) (*instance, time.Duration, error) {
	began := time.Now()
	in := &instance{w: w, seed: cfg.seed, errs: map[string]int{}}
	opts := td.ServerOptions{
		Program: src,
		Table:   w.table,
		Logger:  slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	}
	if w.durable {
		dir, err := os.MkdirTemp(cfg.outDir, "store-")
		if err != nil {
			return nil, 0, err
		}
		in.dir = dir
		opts.SnapshotPath = filepath.Join(dir, "db.snap")
		opts.WALPath = filepath.Join(dir, "db.wal")
		opts.CheckpointWALSize = 1 << 20
	}
	if sink != nil { // the traced run: every transaction carries a stage clock
		opts.StageSample = 1
		opts.WideSink = sink
	}
	srv, err := td.NewServer(opts)
	if err != nil {
		in.close()
		return nil, 0, err
	}
	in.srv = srv
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		in.close()
		return nil, 0, err
	}
	for c := 0; c < conns; c++ {
		cl, err := td.DialServer(addr.String())
		if err != nil {
			in.close()
			return nil, 0, err
		}
		in.clients = append(in.clients, cl)
	}
	in.closedLoop(in.clients, cfg.scaled(warmOps), false)
	return in, time.Since(began), nil
}

func (in *instance) close() {
	for _, cl := range in.clients {
		cl.Close()
	}
	if in.srv != nil {
		in.srv.Close()
	}
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

// do runs one op on cl: it submits the request, resubmits it while the
// server gives up on it, and checks the answer. It returns how many times the
// server gave up.
func (in *instance) do(cl *td.ServerClient, o op) (giveups int, err error) {
	for {
		err = in.submit(cl, o)
		if err == nil || !td.IsConflict(err) || giveups == resubmits {
			return giveups, err
		}
		giveups++
		in.noteFailure(err)
		time.Sleep(time.Duration(giveups) * backoff)
	}
}

// submit sends one request on cl and checks the answer.
func (in *instance) submit(cl *td.ServerClient, o op) error {
	if o.query {
		sols, err := cl.Query(o.goal, 0)
		if err != nil {
			return err
		}
		if len(sols) != o.expect {
			return fmt.Errorf("wrong answer: %s gave %d solutions, the truth is %d", o.goal, len(sols), o.expect)
		}
		return nil
	}
	res, err := cl.Exec(o.goal)
	if err != nil {
		return err
	}
	in.acked.Add(1)
	for {
		cur := in.maxVer.Load()
		if res.Version <= cur || in.maxVer.CompareAndSwap(cur, res.Version) {
			return nil
		}
	}
}

func (in *instance) noteFailure(err error) {
	text := err.Error()
	var se *td.ServerError
	if errors.As(err, &se) {
		text = se.Code + ": " + se.Msg
	} else if len(text) > 80 {
		text = text[:80]
	}
	in.mu.Lock()
	in.errs[text]++
	in.mu.Unlock()
}

// phase is what one closed-loop run observed. Per op it keeps only the
// client-observed send→reply time (failedNs for a failed op), so that the
// benchmark's own bookkeeping stays small beside the server's heap.
type phase struct {
	first    int64 // op index of sample 0
	lat      []uint32
	sent     []time.Duration // per-op send times, kept only for a traced run
	winStart []time.Duration // send time of each window's first op
	wall     time.Duration   // first send → last reply
	failed   int             // ops that never got a correct answer
	flawed   int             // failed ops, plus ops the server gave up on at least once
	giveups  int             // submissions the server gave up on after its conflict retries
}

// closedLoop runs n ops over clients: each connection sends its next request
// when the previous reply arrives.
func (in *instance) closedLoop(clients []*td.ServerClient, n int, keepSent bool) *phase {
	ph := &phase{
		first:    in.next.Add(int64(n)) - int64(n),
		lat:      make([]uint32, n),
		winStart: make([]time.Duration, nWindows),
	}
	if keepSent {
		ph.sent = make([]time.Duration, n)
	}
	size := (n + nWindows - 1) / nWindows
	var next, failed, flawed, giveups atomic.Int64
	var wg sync.WaitGroup
	began := time.Now()
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *td.ServerClient) {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= n {
					return
				}
				o := in.w.gen(in.seed, ph.first+int64(j))
				sent := time.Since(began)
				if j%size == 0 {
					ph.winStart[j/size] = sent
				}
				if keepSent {
					ph.sent[j] = sent
				}
				gave, err := in.do(cl, o)
				took := time.Since(began) - sent
				if gave > 0 || err != nil {
					giveups.Add(int64(gave))
					flawed.Add(1)
				}
				if err != nil {
					failed.Add(1)
					in.noteFailure(err)
					ph.lat[j] = failedNs
				} else {
					ph.lat[j] = uint32(min(int64(took), failedNs-1))
				}
			}
		}(cl)
	}
	wg.Wait()
	ph.wall = time.Since(began)
	ph.failed, ph.flawed, ph.giveups = int(failed.Load()), int(flawed.Load()), int(giveups.Load())
	return ph
}

// window is one window's end-to-end numbers.
type window struct {
	tput, p50, p99, p999 float64
}

// windows cuts the phase into nWindows consecutive windows by op index. A
// failed op adds nothing to throughput and sorts as the slowest sample, so
// it counts as missing any latency limit.
func (ph *phase) windows() []window {
	n := len(ph.lat)
	size := (n + nWindows - 1) / nWindows
	var out []window
	for i := 0; i*size < n; i++ {
		lo, hi := i*size, min((i+1)*size, n)
		end := ph.wall
		if hi < n {
			end = ph.winStart[i+1]
		}
		lat := sortedCopy(ph.lat[lo:hi])
		ok, _ := slices.BinarySearch(lat, failedNs) // failed ops sort last
		out = append(out, window{
			tput: float64(ok) / (end - ph.winStart[i]).Seconds(),
			p50:  quantileUs(lat, 0.50),
			p99:  quantileUs(lat, 0.99),
			p999: quantileUs(lat, 0.999),
		})
	}
	return out
}

// byVerb splits the phase's latencies into those of its QUERYs and of its
// EXECs, each sorted.
func (ph *phase) byVerb(in *instance) (query, exec []uint32) {
	for j, l := range ph.lat {
		if in.w.gen(in.seed, ph.first+int64(j)).query {
			query = append(query, l)
		} else {
			exec = append(exec, l)
		}
	}
	slices.Sort(query)
	slices.Sort(exec)
	return query, exec
}

func sortedCopy(xs []uint32) []uint32 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// quantileUs is the nearest-rank quantile of sorted nanosecond samples, in µs.
func quantileUs(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(k, 0)]) / 1e3
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// openResult is one open-loop rung.
type openResult struct {
	n        int
	p50, p99 float64 // µs, timed from the due time
	maxLate  float64 // µs, worst generator lateness (send − due)
	endLate  float64 // µs, lateness of the last sends: a backlog that grew shows here
	failed   int
}

// openLoop offers rate ops/s for dur on a fixed schedule: slot k is due at
// k/rate, and connection c serves the slots congruent to c. A connection is
// synchronous, so a slow reply makes its next send late; latency is timed
// from the due time, which charges that wait to the request it delayed. The
// generator shares the two cores with the server: one reason these numbers
// are not gated.
func (in *instance) openLoop(conns, rate int, dur time.Duration) openResult {
	slots := int(dur.Seconds() * float64(rate))
	if slots < conns {
		slots = conns
	}
	first := in.next.Add(int64(slots)) - int64(slots)
	lat := make([]uint32, slots)
	late := make([]time.Duration, slots)
	var failed atomic.Int64
	var wg sync.WaitGroup
	began := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < slots; k += conns {
				due := time.Duration(float64(k) / float64(rate) * 1e9)
				waitUntil(began, due)
				late[k] = time.Since(began) - due
				_, err := in.do(in.clients[c], in.w.gen(in.seed, first+int64(k)))
				if err != nil {
					failed.Add(1)
					in.noteFailure(err)
					lat[k] = failedNs
				} else {
					lat[k] = uint32(min(int64(time.Since(began)-due), failedNs-1))
				}
			}
		}(c)
	}
	wg.Wait()
	res := openResult{n: slots, failed: int(failed.Load())}
	for k, l := range late {
		res.maxLate = max(res.maxLate, float64(l)/1e3)
		if k >= slots-conns {
			res.endLate = max(res.endLate, float64(l)/1e3)
		}
	}
	sorted := sortedCopy(lat)
	res.p50, res.p99 = quantileUs(sorted, 0.50), quantileUs(sorted, 0.99)
	return res
}

// waitUntil returns when due has passed since began. It blocks its thread in
// nanosleep up to the last stretch and spins only that: time.Sleep wakes an
// otherwise idle process with millisecond granularity, and a generator that
// spins all the way takes the cores from the server (at 80% offered load it
// raised bank_mem's open-loop p50 from 0.12 ms to 2.3 ms).
func waitUntil(began time.Time, due time.Duration) {
	const spin = 60 * time.Microsecond
	if wait := due - time.Since(began) - spin; wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil)
	}
	for time.Since(began) < due {
		runtime.Gosched()
	}
}

// copyFile copies src to dst; a missing src (no checkpoint has written a
// snapshot yet) is not an error.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
