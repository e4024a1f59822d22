package obs

import "encoding/json"

// WideEvent is the one-line-per-transaction structured event: everything
// the server knows about a finished transaction, flattened into a single
// record ("wide event" in the canonical-log-line sense). It is emitted on
// the same JSONL stream as span trees; the Event discriminator ("txn")
// distinguishes the two line shapes, and span lines — whose top-level keys
// never include "event" — are skipped by wide-event readers.
type WideEvent struct {
	Event    string           `json:"event"` // always "txn"
	Trace    uint64           `json:"trace,omitempty"`
	Session  uint64           `json:"session,omitempty"`
	Verb     string           `json:"verb,omitempty"`
	Goal     string           `json:"goal,omitempty"`
	LSN      uint64           `json:"lsn,omitempty"`
	Retries  int              `json:"retries,omitempty"`  // OCC rounds lost before this commit
	Conflict string           `json:"conflict,omitempty"` // cause of the last lost round
	Ops      int              `json:"ops,omitempty"`      // write-set size (net ops)
	Batch    int64            `json:"batch,omitempty"`    // commits covered by the fsync that acked us
	StageUs  map[string]int64 `json:"stage_us,omitempty"`
	TotalUs  int64            `json:"total_us,omitempty"`
	// MemoHits and MemoMisses count tabled-call answer replays and memo
	// fills by the transaction's final proof attempt (0 on untabled
	// sessions, so pre-tabling readers see unchanged lines).
	MemoHits   int64 `json:"memo_hits,omitempty"`
	MemoMisses int64 `json:"memo_misses,omitempty"`
	// MemoStale says why that attempt's last memo invalidation happened:
	// the region of the entry's determining set whose content had moved —
	// "reading/2[r17]" (the first-argument bucket r17 of reading/2),
	// "reading/2" (the relation), "reading" (the predicate at every arity).
	MemoStale string `json:"memo_stale,omitempty"`
	// ConflictLSN and ConflictAtom say why a read_write round was lost: the
	// winning commit's LSN and the atom of its op the loser had observed.
	ConflictLSN  uint64 `json:"conflict_lsn,omitempty"`
	ConflictAtom string `json:"conflict_atom,omitempty"`
}

// WideSink receives wide events. Implementations must be safe for
// concurrent use and must not retain or mutate the event.
type WideSink interface {
	EmitWide(*WideEvent)
}

// EmitWide appends e as one JSONL line, interleaved with any span lines on
// the same stream. Marshal errors are swallowed for the same reason as in
// Emit.
func (j *JSONLSink) EmitWide(e *WideEvent) {
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	j.mu.Lock()
	j.w.Write(data)
	j.w.WriteByte('\n')
	j.w.Flush()
	j.mu.Unlock()
}
