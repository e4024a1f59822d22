package db

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/term"
)

func markRow(n int64) []term.Term { return []term.Term{term.NewInt(n)} }

// insertMarks commits mark(from..to) one op per commit block.
func insertMarks(t *testing.T, s *Store, from, to int64) {
	t.Helper()
	for n := from; n <= to; n++ {
		if _, err := s.Insert("mark", markRow(n)); err != nil {
			t.Fatalf("Insert(mark(%d)): %v", n, err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}

func containsMark(s *Store, n int64) bool {
	for _, row := range s.DB.Tuples("mark", 1) {
		if row[0].Equal(term.NewInt(n)) {
			return true
		}
	}
	return false
}

// An incremental checkpoint bounds recovery: reopening replays only the
// WAL suffix past the snapshot LSN, not the whole history.
func TestCheckpointFromBoundedRecovery(t *testing.T) {
	snap, wal := tmpPaths(t)
	s, err := OpenStore(snap, wal)
	if err != nil {
		t.Fatal(err)
	}
	insertMarks(t, s, 1, 100)
	ckptLSN := s.LastLSN()
	if err := s.CheckpointFrom(FreezeDB(s.DB), ckptLSN); err != nil {
		t.Fatal(err)
	}
	insertMarks(t, s, 101, 105) // the suffix recovery must replay
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(snap, wal)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.SnapshotLSN != ckptLSN {
		t.Fatalf("SnapshotLSN = %d, want %d", rec.SnapshotLSN, ckptLSN)
	}
	if rec.SnapshotRecords != 100 {
		t.Fatalf("SnapshotRecords = %d, want 100", rec.SnapshotRecords)
	}
	if rec.ReplayedRecords != 5 {
		t.Fatalf("ReplayedRecords = %d, want 5 (the post-checkpoint suffix only)", rec.ReplayedRecords)
	}
	if s2.DB.Count("mark", 1) != 105 {
		t.Fatalf("recovered %d marks, want 105", s2.DB.Count("mark", 1))
	}
	if s2.LastLSN() != 105 {
		t.Fatalf("LastLSN = %d, want 105", s2.LastLSN())
	}
}

// Crash window 1: snapshot renamed into place, WAL not yet truncated. The
// WAL still holds the full history, including blocks the snapshot already
// covers; recovery must skip those — replaying them would resurrect
// deleted facts.
func TestCheckpointCrashBeforeTruncation(t *testing.T) {
	snap, wal := tmpPaths(t)
	s, err := OpenStore(snap, wal)
	if err != nil {
		t.Fatal(err)
	}
	insertMarks(t, s, 1, 10)
	if _, err := s.Delete("mark", markRow(3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	crash := errors.New("injected crash")
	s.SetCheckpointHook(func(stage string) error {
		if stage == "truncate" {
			return crash
		}
		return nil
	})
	if err := s.CheckpointFrom(FreezeDB(s.DB), s.LastLSN()); !errors.Is(err, crash) {
		t.Fatalf("CheckpointFrom = %v, want the injected crash", err)
	}
	s.Close()

	// The on-disk state now has a snapshot at LSN 11 AND a WAL with all 11
	// blocks — the exact crash-point state.
	s2, err := OpenStore(snap, wal)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.SnapshotLSN != 11 {
		t.Fatalf("SnapshotLSN = %d, want 11", rec.SnapshotLSN)
	}
	if rec.SkippedRecords != 11 {
		t.Fatalf("SkippedRecords = %d, want 11 (every pre-snapshot record)", rec.SkippedRecords)
	}
	if rec.ReplayedRecords != 0 {
		t.Fatalf("ReplayedRecords = %d, want 0", rec.ReplayedRecords)
	}
	if containsMark(s2, 3) {
		t.Fatal("mark(3) resurrected: recovery replayed a WAL block the snapshot already covers")
	}
	if got := s2.DB.Count("mark", 1); got != 9 {
		t.Fatalf("recovered %d marks, want 9", got)
	}
	// Post-crash commits continue from the recovered LSN.
	insertMarks(t, s2, 100, 100)
	if s2.LastLSN() != 12 {
		t.Fatalf("LastLSN after new commit = %d, want 12", s2.LastLSN())
	}
}

// Crash window 2: mid-snapshot-write — the temp file exists but was never
// renamed. The old snapshot and the untouched WAL remain authoritative;
// nothing is lost and the leftover temp file is inert.
func TestCheckpointCrashMidSnapshotWrite(t *testing.T) {
	snap, wal := tmpPaths(t)
	s, err := OpenStore(snap, wal)
	if err != nil {
		t.Fatal(err)
	}
	insertMarks(t, s, 1, 20)

	crash := errors.New("injected crash")
	s.SetCheckpointHook(func(stage string) error {
		if stage == "snapshot" {
			return crash
		}
		return nil
	})
	if err := s.CheckpointFrom(FreezeDB(s.DB), s.LastLSN()); !errors.Is(err, crash) {
		t.Fatalf("CheckpointFrom = %v, want the injected crash", err)
	}
	s.Close()

	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Fatalf("snapshot appeared despite the mid-write crash: %v", err)
	}

	s2, err := OpenStore(snap, wal)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.SnapshotLSN != 0 || rec.ReplayedRecords != 20 {
		t.Fatalf("recovery = %+v, want full WAL replay with no snapshot", rec)
	}
	if got := s2.DB.Count("mark", 1); got != 20 {
		t.Fatalf("recovered %d marks, want 20", got)
	}
}

// Every acknowledged commit survives a crash at either checkpoint window,
// and nothing is applied twice — the group-commit crash contract extended
// across checkpoints.
func TestCheckpointCrashWindowsAckedSubsetRecovered(t *testing.T) {
	for _, stage := range []string{"snapshot", "truncate"} {
		t.Run(stage, func(t *testing.T) {
			snap, wal := tmpPaths(t)
			s, err := OpenStore(snap, wal)
			if err != nil {
				t.Fatal(err)
			}
			// Interleave inserts and deletes so double-apply is visible.
			for n := int64(1); n <= 30; n++ {
				insertMarks(t, s, n, n)
				if n%3 == 0 {
					if _, err := s.Delete("mark", markRow(n)); err != nil {
						t.Fatal(err)
					}
					if err := s.Commit(); err != nil {
						t.Fatal(err)
					}
				}
			}
			want := s.DB.Count("mark", 1) // 20: every third mark deleted
			crash := errors.New("crash")
			s.SetCheckpointHook(func(st string) error {
				if st == stage {
					return crash
				}
				return nil
			})
			if err := s.CheckpointFrom(FreezeDB(s.DB), s.LastLSN()); !errors.Is(err, crash) {
				t.Fatalf("CheckpointFrom = %v, want crash", err)
			}
			s.Close()

			s2, err := OpenStore(snap, wal)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if got := s2.DB.Count("mark", 1); got != want {
				t.Fatalf("recovered %d marks, want %d", got, want)
			}
			for n := int64(1); n <= 30; n++ {
				if deleted := n%3 == 0; containsMark(s2, n) == deleted {
					t.Fatalf("mark(%d): present=%v, want %v", n, deleted, !deleted)
				}
			}
		})
	}
}

// The retired v1 formats fail closed: a v1 WAL or snapshot is refused with
// ErrCorrupt naming the file, and — unlike a torn tail, which recovery
// truncates — its bytes are left exactly as they were.
func TestV1FilesFailClosed(t *testing.T) {
	rec := encodeRecord(true, "mark", 1, term.KeyOf(markRow(1)))
	for _, tc := range []struct {
		name string
		path func(snap, wal string) string
		data []byte
	}{
		{"wal", func(_, wal string) string { return wal }, append([]byte("TDWAL1\n"), rec...)},
		{"snapshot", func(snap, _ string) string { return snap }, append([]byte("TDSNAP1\n"), rec...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, wal := tmpPaths(t)
			path := tc.path(snap, wal)
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := OpenStore(snap, wal)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), path) {
				t.Fatalf("OpenStore on a v1 %s = %v, want ErrCorrupt naming %s", tc.name, err, path)
			}
			after, rerr := os.ReadFile(path)
			if rerr != nil || !bytes.Equal(after, tc.data) {
				t.Fatalf("v1 %s changed by the failed open: %q (%v), want %q", tc.name, after, rerr, tc.data)
			}
		})
	}
}

// Commits keep flowing while the snapshot is being written: CheckpointFrom
// holds no store-wide lock during the expensive stage.
func TestCheckpointDoesNotBlockCommits(t *testing.T) {
	snap, wal := tmpPaths(t)
	s, err := OpenStore(snap, wal)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	insertMarks(t, s, 1, 50)
	lsn := s.LastLSN()
	frozen := FreezeDB(s.DB)

	inSnapshot := make(chan struct{})
	release := make(chan struct{})
	s.SetCheckpointHook(func(stage string) error {
		if stage == "snapshot" {
			close(inSnapshot)
			<-release
		}
		return nil
	})

	var wg sync.WaitGroup
	wg.Add(1)
	ckptErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		ckptErr <- s.CheckpointFrom(frozen, lsn)
	}()

	<-inSnapshot // snapshot mid-write, rename pending
	// Commits must complete while the checkpointer is parked.
	insertMarks(t, s, 51, 60)
	if s.DB.Count("mark", 1) != 60 {
		t.Fatal("commit did not apply while checkpoint in progress")
	}
	close(release)
	wg.Wait()
	if err := <-ckptErr; err != nil {
		t.Fatal(err)
	}

	// The rotation kept the concurrent commits: only they replay at boot.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(snap, wal)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.SnapshotLSN != lsn || rec.ReplayedRecords != 10 {
		t.Fatalf("recovery = %+v, want snapshot at %d with 10 replayed", rec, lsn)
	}
	if got := s2.DB.Count("mark", 1); got != 60 {
		t.Fatalf("recovered %d marks, want 60", got)
	}
}

// ReadManifest surfaces the snapshot's provenance for operators (tdlog
// -manifest).
func TestReadManifest(t *testing.T) {
	snap, wal := tmpPaths(t)
	s, err := OpenStore(snap, wal)
	if err != nil {
		t.Fatal(err)
	}
	insertMarks(t, s, 1, 7)
	if err := s.CheckpointFrom(FreezeDB(s.DB), s.LastLSN()); err != nil {
		t.Fatal(err)
	}
	s.Close()

	man, err := ReadManifest(snap)
	if err != nil {
		t.Fatal(err)
	}
	if man.FormatVersion != 2 || man.LSN != 7 || man.Records != 7 {
		t.Fatalf("manifest = %+v, want v2 at LSN 7 with 7 records", man)
	}
}

// Servers that had commit lanes wrote a format-3 manifest header: the v2
// fields plus the lane count. Such a snapshot still opens and recovers every
// record, with the WAL suffix on top, and the next checkpoint rewrites it in
// the one format that is written, v2.
func TestFormat3SnapshotReopens(t *testing.T) {
	snap, wal := tmpPaths(t)
	s, err := OpenStore(snap, wal)
	if err != nil {
		t.Fatal(err)
	}
	insertMarks(t, s, 1, 9)
	if err := s.CheckpointFrom(FreezeDB(s.DB), s.LastLSN()); err != nil {
		t.Fatal(err)
	}
	insertMarks(t, s, 10, 12) // a WAL suffix past the snapshot
	s.Close()

	// Re-head the snapshot the way the lane-era writer laid it out:
	// version 3, LSN, record count, lane count 2, CRC over those bytes.
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.NewReader(raw[len(snapMagic):])
	var v2 [3]uint64 // version, LSN, records
	for i := range v2 {
		if v2[i], err = binary.ReadUvarint(body); err != nil {
			t.Fatal(err)
		}
	}
	records := raw[len(raw)-body.Len()+4:] // past the v2 header's CRC
	hdr := binary.AppendUvarint(nil, 3)
	hdr = binary.AppendUvarint(hdr, v2[1])
	hdr = binary.AppendUvarint(hdr, v2[2])
	hdr = binary.AppendUvarint(hdr, 2)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	if err := os.WriteFile(snap, append(append([]byte(snapMagic), hdr...), records...), 0o644); err != nil {
		t.Fatal(err)
	}

	man, err := ReadManifest(snap)
	if err != nil {
		t.Fatal(err)
	}
	if man.FormatVersion != 3 || man.LSN != 9 || man.Records != 9 {
		t.Fatalf("manifest = %+v, want v3 at LSN 9 with 9 records", man)
	}
	s2, err := OpenStore(snap, wal)
	if err != nil {
		t.Fatalf("opening a format-3 snapshot: %v", err)
	}
	defer s2.Close()
	if rec := s2.Recovery(); rec.SnapshotLSN != 9 || rec.SnapshotRecords != 9 || rec.ReplayedRecords != 3 {
		t.Fatalf("recovery = %+v, want 9 snapshot records at LSN 9 and 3 replayed", rec)
	}
	for n := int64(1); n <= 12; n++ {
		if !containsMark(s2, n) {
			t.Fatalf("recovered store is missing mark(%d)", n)
		}
	}
	if err := s2.CheckpointFrom(FreezeDB(s2.DB), s2.LastLSN()); err != nil {
		t.Fatal(err)
	}
	if man, err = ReadManifest(snap); err != nil {
		t.Fatal(err)
	}
	if man.FormatVersion != 2 || man.LSN != 12 || man.Records != 12 {
		t.Fatalf("manifest after the next checkpoint = %+v, want v2 at LSN 12 with 12 records", man)
	}
}
