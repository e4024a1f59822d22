package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"

	td "repro"
)

// stageNames are the server's pipeline stages, in the order a committing
// EXEC passes through them (WideEvent.StageUs keys).
var stageNames = []string{"parse", "prove", "validate", "lane_wait", "apply", "wal_append", "fsync_wait", "ack"}

// span is one timed interval of the traced run. Times are nanoseconds since
// the traced run began. Root spans ("request") are timed by the client;
// their children are the server's own stage clocks for that request
// (WideEvent.StageUs: exact durations, laid end to end in pipeline order and
// centred in the root, because the event carries no start times). Replay
// spans are the outside-layer calls on the same request, made later and
// single-threaded; they are roots of their own.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Req    int64  `json:"req"`    // op index: spans of one request share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the part children cover
}

// spanLog keeps spans in memory until the benchmark ends.
type spanLog struct {
	spans []span
}

func (l *spanLog) add(parent int, req int64, name string, start, end int64) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end, Self: end - start})
	if parent > 0 {
		l.spans[parent-1].Self -= end - start
	}
	return id
}

// addRequest records one traced request: the client-side root and, when the
// server sampled it, one child per stage that took measurable time.
func (l *spanLog) addRequest(req int64, start, end int64, ev *td.WideEvent) {
	root := l.add(0, req, "request", start, end)
	if ev == nil {
		return
	}
	var sum int64
	for _, s := range stageNames {
		sum += ev.StageUs[s] * 1e3
	}
	at := start + max((end-start-sum)/2, 0)
	for _, s := range stageNames {
		if d := ev.StageUs[s] * 1e3; d > 0 {
			l.add(root, req, "server.stage."+s, at, at+d)
			at += d
		}
	}
}

func (l *spanLog) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wideSink is the benchmark-owned ServerOptions.WideSink: it keeps every
// sampled transaction's wide event, in emission order.
type wideSink struct {
	mu     sync.Mutex
	events []td.WideEvent
}

func (s *wideSink) EmitWide(e *td.WideEvent) {
	s.mu.Lock()
	s.events = append(s.events, *e)
	s.mu.Unlock()
}

func (s *wideSink) take() []td.WideEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.events
	s.events = nil
	return out
}

// grow makes room for n more spans, so that a loop whose allocations are
// being counted does not pay for the log's growth.
func (l *spanLog) grow(n int) {
	l.spans = append(make([]span, 0, len(l.spans)+n), l.spans...)
}
