package db

import (
	"runtime"
	"testing"

	"repro/internal/term"
)

// memRows is the number of fresh-keyed arity-2 rows the retained-memory
// tests build: enough that per-row costs dominate the fixed ones.
const memRows = 16384

// liveHeap returns the bytes live on the heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// freshKeyedDB returns a DB holding memRows rows p(i, i), each the only
// row of its first-argument bucket: the shape of a keyed table (accounts,
// samples), where per-bucket overhead is paid once per row.
func freshKeyedDB() *DB {
	d := New()
	row := make([]term.Term, 2)
	for i := 0; i < memRows; i++ {
		row[0], row[1] = term.NewInt(int64(i)), term.NewInt(int64(i))
		d.Insert("p", row)
	}
	d.ResetTrail()
	return d
}

// TestRetainedBytesPerRow bounds what a stored row keeps live: built by
// Insert (the row, its key, its map entries and its bucket), copied by
// Clone (which shares rows and bucket slices) and thawed from a FrozenDB
// (which shares rows). A bucket that carried its own map cost 708, 628 and
// 708 B per row; one sorted slice per bucket costs well under half of
// that. Not parallel: it reads the process heap.
func TestRetainedBytesPerRow(t *testing.T) {
	const (
		builtMax  = 360
		clonedMax = 260
		thawedMax = 300
	)
	perRow := func(before, after uint64) float64 {
		return (float64(after) - float64(before)) / memRows
	}

	base := liveHeap()
	d := freshKeyedDB()
	built := liveHeap()
	if got := perRow(base, built); got > builtMax {
		t.Errorf("Insert retains %.0f B/row, want <= %d", got, builtMax)
	}

	c := d.Clone()
	cloned := liveHeap()
	if got := perRow(built, cloned); got > clonedMax {
		t.Errorf("Clone retains %.0f B/row, want <= %d", got, clonedMax)
	}
	runtime.KeepAlive(c)

	f := FreezeDB(d)
	frozen := liveHeap()
	th := f.Thaw()
	thawed := liveHeap()
	if got := perRow(frozen, thawed); got > thawedMax {
		t.Errorf("Thaw retains %.0f B/row, want <= %d", got, thawedMax)
	}
	t.Logf("B/row: built %.0f, cloned %.0f, thawed %.0f",
		perRow(base, built), perRow(built, cloned), perRow(frozen, thawed))
	runtime.KeepAlive(d)
	runtime.KeepAlive(th)
	runtime.KeepAlive(f)
}
