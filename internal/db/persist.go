package db

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/term"
)

// Durability: a write-ahead log plus snapshot checkpoints, giving the
// database the persistence story a laboratory information system needs
// (the genome center's experimental history must survive restarts).
//
// Operation record format (WAL and snapshot files share it, after their
// magic headers):
//
//	op byte ('I' insert, 'D' delete)
//	uvarint len(pred), pred bytes
//	uvarint arity
//	uvarint len(key), key bytes        (canonical tuple key; see term.KeyOf)
//	crc32 (IEEE) of everything above, little-endian
//
// WAL v2 ("TDWAL2\n") adds a commit-boundary record after each commit's
// operations, stamping them with the commit's LSN:
//
//	'C'
//	uvarint LSN
//	crc32 (IEEE) of everything above, little-endian
//
// Recovery applies only complete commit blocks — a block's ops followed by
// its boundary — whose LSN exceeds the booted snapshot's manifest LSN, and
// truncates the log at the end of the last complete block. A torn tail
// (crash mid-append) or an orphaned run of ops whose boundary never reached
// the disk is therefore dropped, never half-applied or absorbed into the
// next commit.
//
// Snapshot v2 ("TDSNAP2\n") opens with a manifest header:
//
//	uvarint format version (2)
//	uvarint LSN of the last commit the snapshot covers
//	uvarint record count
//	crc32 (IEEE) of the three fields, little-endian
//
// followed by insert records. These are the only formats: a file with any
// other magic — a pre-PR-6 v1 file included — is refused with ErrCorrupt
// and left untouched.

// File magics.
const (
	walMagic  = "TDWAL2\n"
	snapMagic = "TDSNAP2\n"
)

// ErrCorrupt reports an unreadable persistent file (bad magic or manifest).
var ErrCorrupt = errors.New("db: corrupt persistent file")

// WAL is an append-only operation log. Its methods are safe for concurrent
// use.
//
// Appending and syncing are deliberately split: Append buffers a record and
// returns its end offset (a byte offset within this log), Sync makes
// everything appended so far durable in one write+fsync. A group committer
// can therefore batch many appends under a single fsync and acknowledge
// every commit the sync covered. The two sides are double-buffered: Sync
// swaps the append buffer out under the short buffer mutex and performs the
// write and fsync holding only the sync mutex, so appends (which sit on the
// server's commit critical section) never wait behind an in-flight fsync.
type WAL struct {
	mu      sync.Mutex // guards buf/scratch/len/synced/err/retired
	f       *os.File
	buf     []byte // records appended since the last buffer swap
	scratch []byte // spare buffer recycled by Sync
	len     int64  // total appended bytes (file + buf)
	synced  int64  // durable through this offset
	err     error  // sticky write failure: the log is broken past synced
	retired bool   // replaced by a rotation; Sync is a clean no-op

	syncMu sync.Mutex // serializes write+fsync; never blocks Append
}

// OpenWAL opens (creating if needed) the log at path and positions for
// appending. The file must be empty or start with the WAL magic.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if info.Size() == 0 {
		if _, err := f.WriteString(walMagic); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		hdr := make([]byte, len(walMagic))
		if _, err := io.ReadFull(f, hdr); err != nil || string(hdr) != walMagic {
			f.Close()
			return nil, fmt.Errorf("%w: %s is not a v2 TD WAL", ErrCorrupt, path)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	size, _ := f.Seek(0, io.SeekCurrent)
	return &WAL{f: f, len: size, synced: size}, nil
}

// Append buffers one operation record and returns the log length after it.
// insert=false means delete. The record is not durable until a Sync whose
// returned offset reaches it.
func (w *WAL) Append(insert bool, pred string, arity int, key string) (int64, error) {
	return w.append(encodeRecord(insert, pred, arity, key))
}

// AppendBoundary buffers a commit-boundary record, stamping every operation
// appended since the previous boundary as one commit block at lsn.
func (w *WAL) AppendBoundary(lsn uint64) (int64, error) {
	return w.append(encodeBoundary(lsn))
}

func (w *WAL) append(rec []byte) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.len, w.err
	}
	if w.retired {
		return w.len, errors.New("db: append to a rotated WAL")
	}
	w.buf = append(w.buf, rec...)
	w.len += int64(len(rec))
	return w.len, nil
}

// Sync writes buffered records to the file and fsyncs it, returning the
// byte offset the log is now durable through: every record whose Append
// offset is at or below it survived. Appends proceed concurrently — only
// the buffer swap takes the append mutex; the write and fsync do not. On a
// log retired by rotation, Sync is a clean no-op: the rotation drained the
// buffer, and the store directs racing syncers to the replacement log.
func (w *WAL) Sync() (int64, error) {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	if w.err != nil {
		defer w.mu.Unlock()
		return w.synced, w.err
	}
	if w.retired {
		defer w.mu.Unlock()
		return w.synced, nil
	}
	target := w.len
	data := w.buf
	w.buf = w.scratch[:0]
	w.scratch = nil
	w.mu.Unlock()

	var err error
	if len(data) > 0 {
		_, err = w.f.Write(data)
	}
	if err == nil {
		err = fdatasync(w.f)
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		// A partial write may have torn the tail; the log is unusable past
		// the last full sync. Poison it rather than risk interleaving
		// later appends after the gap.
		w.err = err
		return w.synced, err
	}
	w.scratch = data[:0]
	if target > w.synced {
		w.synced = target
	}
	return w.synced, nil
}

// retire closes the log file after a rotation replaced it. Subsequent Sync
// calls are clean no-ops rather than errors: a group-commit flusher that
// raced the rotation must not poison the pipeline over a file that no
// longer matters — the store re-syncs the replacement log (see Store.Sync).
// Callers drain the buffer (Sync) before retiring.
func (w *WAL) retire() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	w.retired = true
	w.mu.Unlock()
	return w.f.Close()
}

// Synced returns the byte offset the log is known durable through.
func (w *WAL) Synced() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.synced
}

// Close flushes and closes the log.
func (w *WAL) Close() error {
	if _, err := w.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Size returns the current log length in bytes (including buffered data).
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.len
}

func encodeRecord(insert bool, pred string, arity int, key string) []byte {
	var buf []byte
	if insert {
		buf = append(buf, 'I')
	} else {
		buf = append(buf, 'D')
	}
	buf = binary.AppendUvarint(buf, uint64(len(pred)))
	buf = append(buf, pred...)
	buf = binary.AppendUvarint(buf, uint64(arity))
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	sum := crc32.ChecksumIEEE(buf)
	return binary.LittleEndian.AppendUint32(buf, sum)
}

// encodeBoundary frames a commit boundary: 'C', the commit's LSN, CRC.
func encodeBoundary(lsn uint64) []byte {
	buf := []byte{'C'}
	buf = binary.AppendUvarint(buf, lsn)
	sum := crc32.ChecksumIEEE(buf)
	return binary.LittleEndian.AppendUint32(buf, sum)
}

// record is a decoded operation entry.
type record struct {
	insert bool
	pred   string
	arity  int
	key    string
}

// walEntry is one decoded log entry: an operation or a commit boundary.
type walEntry struct {
	boundary bool
	lsn      uint64 // boundary only
	rec      record // operation only
}

// readRecords decodes operation records until EOF or the first torn,
// corrupt, or non-operation entry (silently treated as the end of the
// usable stream). The second result is the byte length of the prefix read.
func readRecords(r *bufio.Reader) ([]record, int64) {
	var out []record
	var n int64
	for {
		e, size, ok := readEntry(r)
		if !ok || e.boundary {
			return out, n
		}
		out = append(out, e.rec)
		n += size
	}
}

// readEntry decodes one entry; ok is false at EOF or the first torn or
// corrupt entry.
func readEntry(r *bufio.Reader) (walEntry, int64, bool) {
	op, err := r.ReadByte()
	if err != nil {
		return walEntry{}, 0, false
	}
	raw := []byte{op}
	readU := func() (uint64, bool) {
		v, err := binary.ReadUvarint(&teeReader{r: r, buf: &raw})
		return v, err == nil
	}
	checkCRC := func() bool {
		var crcBuf [4]byte
		if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
			return false
		}
		return binary.LittleEndian.Uint32(crcBuf[:]) == crc32.ChecksumIEEE(raw)
	}
	switch op {
	case 'C':
		lsn, ok := readU()
		if !ok || !checkCRC() {
			return walEntry{}, 0, false
		}
		return walEntry{boundary: true, lsn: lsn}, int64(len(raw)) + 4, true
	case 'I', 'D':
	default:
		return walEntry{}, 0, false
	}
	readN := func(n uint64) (string, bool) {
		if n > 1<<30 {
			return "", false
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return "", false
		}
		raw = append(raw, b...)
		return string(b), true
	}
	predLen, ok := readU()
	if !ok {
		return walEntry{}, 0, false
	}
	pred, ok := readN(predLen)
	if !ok {
		return walEntry{}, 0, false
	}
	arity, ok := readU()
	if !ok {
		return walEntry{}, 0, false
	}
	keyLen, ok := readU()
	if !ok {
		return walEntry{}, 0, false
	}
	key, ok := readN(keyLen)
	if !ok {
		return walEntry{}, 0, false
	}
	if !checkCRC() {
		return walEntry{}, 0, false
	}
	return walEntry{rec: record{insert: op == 'I', pred: pred, arity: int(arity), key: key}}, int64(len(raw)) + 4, true
}

// teeReader lets ReadUvarint consume bytes while recording them for the CRC.
type teeReader struct {
	r   *bufio.Reader
	buf *[]byte
}

func (t *teeReader) ReadByte() (byte, error) {
	b, err := t.r.ReadByte()
	if err == nil {
		*t.buf = append(*t.buf, b)
	}
	return b, err
}

// Manifest describes a snapshot file: its format version, the LSN of the
// last commit it covers, and its record count.
type Manifest struct {
	FormatVersion int    `json:"format_version"`
	LSN           uint64 `json:"lsn"`
	Records       uint64 `json:"records"`
}

func encodeManifest(lsn, count uint64) []byte {
	buf := binary.AppendUvarint(nil, 2)
	buf = binary.AppendUvarint(buf, lsn)
	buf = binary.AppendUvarint(buf, count)
	sum := crc32.ChecksumIEEE(buf)
	return binary.LittleEndian.AppendUint32(buf, sum)
}

func readManifestHeader(r *bufio.Reader) (Manifest, error) {
	var raw []byte
	tee := &teeReader{r: r, buf: &raw}
	version, err := binary.ReadUvarint(tee)
	if err != nil {
		return Manifest{}, err
	}
	lsn, err := binary.ReadUvarint(tee)
	if err != nil {
		return Manifest{}, err
	}
	count, err := binary.ReadUvarint(tee)
	if err != nil {
		return Manifest{}, err
	}
	switch version {
	case 2:
	case 3:
		// Written by servers that had commit lanes: a v2 header plus the
		// lane count. Read and discarded so their checkpoints reopen; only
		// v2 is written.
		if _, err := binary.ReadUvarint(tee); err != nil {
			return Manifest{}, err
		}
	default:
		return Manifest{}, fmt.Errorf("unsupported manifest version %d", version)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return Manifest{}, err
	}
	if binary.LittleEndian.Uint32(crcBuf[:]) != crc32.ChecksumIEEE(raw) {
		return Manifest{}, errors.New("manifest checksum mismatch")
	}
	return Manifest{FormatVersion: int(version), LSN: lsn, Records: count}, nil
}

// syncDir fsyncs path's parent directory, making a just-renamed or created
// directory entry durable — without it the rename itself can be lost on
// power failure even though both files' contents were synced.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSnapshotFile writes a v2 snapshot atomically: magic, manifest
// header, then the records emit produces — through a temp file that is
// fsynced, renamed over path, and sealed with a parent-directory fsync.
// midHook, when non-nil, runs with the temp file written but nothing
// renamed (checkpoint crash injection; see Store.SetCheckpointHook).
func writeSnapshotFile(path string, lsn, count uint64, emit func(w *bufio.Writer) error, midHook func() error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(snapMagic); err != nil {
		f.Close()
		return err
	}
	if _, err := w.Write(encodeManifest(lsn, count)); err != nil {
		f.Close()
		return err
	}
	if err := emit(w); err != nil {
		f.Close()
		return err
	}
	if midHook != nil {
		if err := midHook(); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(path)
}

// WriteSnapshot writes the database's full contents to path atomically as
// a v2 snapshot with a zero-LSN manifest. Callers with a real checkpoint
// LSN go through the Store checkpointing paths instead.
func WriteSnapshot(d *DB, path string) error {
	return writeSnapshotFile(path, 0, uint64(d.Size()), func(w *bufio.Writer) error {
		for _, ra := range d.Relations() {
			for _, row := range d.Tuples(ra.Pred, ra.Arity) {
				if _, err := w.Write(encodeRecord(true, ra.Pred, ra.Arity, term.KeyOf(row))); err != nil {
					return err
				}
			}
		}
		return nil
	}, nil)
}

// ReadSnapshot loads a snapshot file into a fresh database.
func ReadSnapshot(path string, opts ...Option) (*DB, error) {
	d, _, err := readSnapshotManifest(path, opts...)
	return d, err
}

// ReadManifest reads a snapshot's manifest without loading its records into
// a database.
func ReadManifest(path string) (Manifest, error) {
	f, _, man, err := openSnapshot(path)
	if err != nil {
		return Manifest{}, err
	}
	f.Close()
	return man, nil
}

// openSnapshot opens a snapshot file and reads its magic and manifest,
// leaving r positioned at the first record. The caller closes f.
func openSnapshot(path string) (f *os.File, r *bufio.Reader, man Manifest, err error) {
	f, err = os.Open(path)
	if err != nil {
		return nil, nil, Manifest{}, err
	}
	r = bufio.NewReader(f)
	hdr := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(r, hdr); err != nil || string(hdr) != snapMagic {
		f.Close()
		return nil, nil, Manifest{}, fmt.Errorf("%w: %s is not a TD snapshot", ErrCorrupt, path)
	}
	man, err = readManifestHeader(r)
	if err != nil {
		f.Close()
		return nil, nil, Manifest{}, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
	}
	return f, r, man, nil
}

func readSnapshotManifest(path string, opts ...Option) (*DB, Manifest, error) {
	f, r, man, err := openSnapshot(path)
	if err != nil {
		return nil, Manifest{}, err
	}
	defer f.Close()
	d := New(opts...)
	recs, _ := readRecords(r)
	if uint64(len(recs)) != man.Records {
		return nil, Manifest{}, fmt.Errorf("%w: %s: manifest says %d records, file holds %d",
			ErrCorrupt, path, man.Records, len(recs))
	}
	d.load(func() { err = applyRecords(d, recs) })
	if err != nil {
		return nil, Manifest{}, err
	}
	d.ResetTrail()
	return d, man, nil
}

// scanWALFile streams the log's decoded entries to fn until EOF, the first
// torn or corrupt entry, or fn returning false. end is the byte offset just
// past the entry. A file too short to hold the magic is a fresh log with
// nothing to scan; a full-length header that is not the WAL magic is
// ErrCorrupt, never a torn tail.
func scanWALFile(path string, fn func(e walEntry, end int64) bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	hdr := make([]byte, len(walMagic))
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil // empty/truncated header: nothing to scan
		}
		return err
	}
	if string(hdr) != walMagic {
		return fmt.Errorf("%w: %s is not a TD WAL", ErrCorrupt, path)
	}
	offset := int64(len(walMagic))
	for {
		e, n, ok := readEntry(r)
		if !ok {
			return nil
		}
		offset += n
		if !fn(e, offset) {
			return nil
		}
	}
}

// WALEntry is one decoded write-ahead-log entry, as surfaced to tools
// (cmd/tdlog's log dump mode).
type WALEntry struct {
	Boundary bool   // commit boundary: stamps the ops before it
	LSN      uint64 // boundary only: the commit's LSN
	Insert   bool   // operation only: insert vs delete
	Pred     string // operation only
	Arity    int    // operation only
	Key      string // operation only: canonical tuple key (term.DecodeKey)
}

// ScanWAL streams the log's entries to fn in order, stopping cleanly at
// the first torn or corrupt entry (or when fn returns false).
func ScanWAL(path string, fn func(WALEntry) bool) error {
	return scanWALFile(path, func(e walEntry, _ int64) bool {
		if e.boundary {
			return fn(WALEntry{Boundary: true, LSN: e.lsn})
		}
		return fn(WALEntry{Insert: e.rec.insert, Pred: e.rec.pred, Arity: e.rec.arity, Key: e.rec.key})
	})
}

// ReplayWAL applies the operations logged at path on top of d, ignoring
// commit boundaries — a raw replay for tools and tests. Store recovery is stricter: it applies only complete
// commit blocks past the booted snapshot's LSN (see replayCommits).
func ReplayWAL(d *DB, path string) (int, error) {
	n := 0
	var applyErr error
	err := scanWALFile(path, func(e walEntry, _ int64) bool {
		if e.boundary {
			return true
		}
		if applyErr = applyRecords(d, []record{e.rec}); applyErr != nil {
			return false
		}
		n++
		return true
	})
	d.ResetTrail()
	if err != nil {
		return 0, err
	}
	if applyErr != nil {
		return 0, applyErr
	}
	return n, nil
}

// replayInfo reports what a commit-block replay did.
type replayInfo struct {
	applied  int    // op records applied (blocks past the snapshot LSN)
	skipped  int    // op records skipped (blocks the snapshot covers)
	lastLSN  uint64 // highest boundary LSN seen
	validLen int64  // byte length of the last complete commit block
}

// replayCommits applies the WAL's complete commit blocks with LSN above
// snapLSN onto d. Blocks at or below snapLSN are already reflected in the
// snapshot and are skipped — replaying them would double-apply (and
// resurrect tuples that later commits deleted). validLen is the truncation
// point: it discards both torn tails and orphaned op runs whose commit
// boundary never reached the disk.
func replayCommits(d *DB, path string, snapLSN uint64) (replayInfo, error) {
	info := replayInfo{validLen: int64(len(walMagic))}
	var pending []record
	var applyErr error
	err := scanWALFile(path, func(e walEntry, end int64) bool {
		if !e.boundary {
			pending = append(pending, e.rec)
			return true
		}
		if e.lsn > snapLSN {
			if applyErr = applyRecords(d, pending); applyErr != nil {
				return false
			}
			info.applied += len(pending)
		} else {
			info.skipped += len(pending)
		}
		pending = pending[:0]
		if e.lsn > info.lastLSN {
			info.lastLSN = e.lsn
		}
		info.validLen = end
		return true
	})
	d.ResetTrail()
	if err != nil {
		return info, err
	}
	return info, applyErr
}

func applyRecords(d *DB, recs []record) error {
	for _, rec := range recs {
		row, err := term.DecodeKey(rec.key)
		if err != nil {
			return fmt.Errorf("db: undecodable tuple for %s/%d: %w", rec.pred, rec.arity, err)
		}
		if len(row) != rec.arity {
			return fmt.Errorf("db: arity mismatch for %s: record says %d, key has %d", rec.pred, rec.arity, len(row))
		}
		if rec.insert {
			d.Insert(rec.pred, row)
		} else {
			d.Delete(rec.pred, row)
		}
	}
	return nil
}

// RecoveryInfo reports what the last OpenStore did — the observable proof
// that recovery is bounded by checkpointing, not by history length.
type RecoveryInfo struct {
	SnapshotLSN     uint64 // manifest LSN of the snapshot booted from (0 if none)
	SnapshotRecords int    // records loaded from the snapshot
	RecoveredLSN    uint64 // LSN of the recovered head
	ReplayedRecords int    // op records applied from the WAL suffix
	SkippedRecords  int    // op records skipped (commits the snapshot covers)
}

// Store couples a database with a WAL and snapshot file, providing
// open-or-recover semantics and checkpointing. Store methods are safe for
// concurrent use; callers that also touch the DB field directly must
// provide their own coordination.
type Store struct {
	mu       sync.Mutex
	DB       *DB
	snapPath string
	walPath  string
	wal      *WAL
	lastLSN  uint64 // LSN of the newest commit block (buffered or durable)
	recovery RecoveryInfo
	syncHook func() error             // test-only fault injection; see SetSyncHook
	ckptHook func(stage string) error // test-only crash injection; see SetCheckpointHook

	ckptMu sync.Mutex // serializes checkpoints and WAL rotations
}

// OpenStore recovers (or initializes) a persistent database: load the
// newest manifest-valid snapshot if present, replay only the WAL commit
// blocks past its LSN on top, truncate the log after its last complete
// block, and reopen it for appending. A snapshot or WAL in any other format
// fails the open with ErrCorrupt and is left as it was.
func OpenStore(snapPath, walPath string, opts ...Option) (*Store, error) {
	var d *DB
	var man Manifest
	if _, err := os.Stat(snapPath); err == nil {
		d, man, err = readSnapshotManifest(snapPath, opts...)
		if err != nil {
			return nil, err
		}
	} else {
		d = New(opts...)
	}
	s := &Store{DB: d, snapPath: snapPath, walPath: walPath, lastLSN: man.LSN}
	s.recovery = RecoveryInfo{SnapshotLSN: man.LSN, SnapshotRecords: int(man.Records)}
	if info, err := os.Stat(walPath); err == nil && info.Size() > 0 {
		if info.Size() < int64(len(walMagic)) {
			// A crash during first-ever creation tore the magic; the file
			// never held a record.
			if err := os.Truncate(walPath, 0); err != nil {
				return nil, err
			}
		} else {
			rep, err := replayCommits(d, walPath, man.LSN)
			if err != nil {
				return nil, err
			}
			s.recovery.ReplayedRecords = rep.applied
			s.recovery.SkippedRecords = rep.skipped
			if rep.lastLSN > s.lastLSN {
				s.lastLSN = rep.lastLSN
			}
			// A crash mid-flush can leave a torn or boundary-less tail.
			// Truncate so records appended from now on land directly after
			// the last complete commit block instead of behind garbage
			// (which the next replay would stop at, losing them).
			if rep.validLen < info.Size() {
				if err := os.Truncate(walPath, rep.validLen); err != nil {
					return nil, err
				}
			}
		}
	}
	s.recovery.RecoveredLSN = s.lastLSN
	wal, err := OpenWAL(walPath)
	if err != nil {
		return nil, err
	}
	s.wal = wal
	return s, nil
}

// Recovery reports what the OpenStore that built this store did. Immutable
// after open.
func (s *Store) Recovery() RecoveryInfo { return s.recovery }

// DetachDB hands the store's live database to the caller and detaches it:
// from now on the store is WAL-and-checkpoint machinery only. ApplyCommit
// becomes a pure log append (the caller owns applying ops to its own head),
// and checkpoints must come through CheckpointFrom with a frozen view. The
// server detaches at boot: it applies under its own commit lock, in memory
// and durable mode alike.
func (s *Store) DetachDB() *DB {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.DB
	s.DB = nil
	return d
}

// LastLSN returns the LSN of the newest commit block (buffered or durable).
// Servers seed their commit version counter from it.
func (s *Store) LastLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastLSN
}

// Insert inserts and logs a tuple as its own commit block; no-ops (set
// semantics) are not logged.
func (s *Store) Insert(pred string, row []term.Term) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.DB == nil {
		return false, errors.New("db: Insert on a detached store")
	}
	if !s.DB.Insert(pred, row) {
		return false, nil
	}
	s.DB.ResetTrail()
	if _, err := s.wal.Append(true, pred, len(row), term.KeyOf(row)); err != nil {
		return true, err
	}
	s.lastLSN++
	_, err := s.wal.AppendBoundary(s.lastLSN)
	return true, err
}

// Delete deletes and logs a tuple as its own commit block; no-ops are not
// logged.
func (s *Store) Delete(pred string, row []term.Term) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.DB == nil {
		return false, errors.New("db: Delete on a detached store")
	}
	if !s.DB.Delete(pred, row) {
		return false, nil
	}
	s.DB.ResetTrail()
	if _, err := s.wal.Append(false, pred, len(row), term.KeyOf(row)); err != nil {
		return true, err
	}
	s.lastLSN++
	_, err := s.wal.AppendBoundary(s.lastLSN)
	return true, err
}

// ApplyOps applies and logs a batch of operations as one commit block at
// the next LSN, holding the store lock for the whole batch so no other
// appender interleaves with it. Per-op no-ops (set semantics) are not
// logged; an all-no-op batch writes no block and consumes no LSN. It does
// not sync; the returned byte offset is the WAL length after the batch —
// the batch is durable once a Sync covers it (or after Commit).
func (s *Store) ApplyOps(ops []Op) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyCommitLocked(ops, s.lastLSN+1)
}

// ApplyCommit applies and logs a batch as one commit block stamped with the
// caller's LSN (the server's commit version), so recovery can correlate WAL
// blocks with commit versions and skip the ones a snapshot already covers.
// LSNs must be strictly increasing across calls.
func (s *Store) ApplyCommit(ops []Op, lsn uint64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyCommitLocked(ops, lsn)
}

func (s *Store) applyCommitLocked(ops []Op, lsn uint64) (int64, error) {
	end := s.wal.Size()
	logged := false
	for i := range ops {
		o := &ops[i]
		// Detached stores log every op verbatim: the caller applied the
		// batch to its own heads and already filtered set-semantic no-ops.
		if s.DB != nil && !s.DB.ApplyOne(o) {
			continue
		}
		e, err := s.wal.Append(o.Insert, o.Pred, len(o.Row), o.Key())
		if err != nil {
			if s.DB != nil {
				s.DB.ResetTrail()
			}
			return end, err
		}
		end = e
		logged = true
	}
	if s.DB != nil {
		s.DB.ResetTrail()
	}
	if !logged {
		return end, nil
	}
	e, err := s.wal.AppendBoundary(lsn)
	if err != nil {
		return end, err
	}
	if lsn > s.lastLSN {
		s.lastLSN = lsn
	}
	return e, nil
}

// Sync makes all logged operations durable (flush + fsync), returning the
// byte offset the WAL is now durable through. It deliberately does NOT hold
// the store mutex across the fsync: ApplyOps (the commit critical section)
// must never queue behind an in-flight sync. If a checkpoint rotates the
// log mid-sync, Sync re-runs against the replacement so its cover extends
// to every record appended before the call.
func (s *Store) Sync() (int64, error) {
	for {
		s.mu.Lock()
		hook := s.syncHook
		w := s.wal
		s.mu.Unlock()
		if hook != nil {
			if err := hook(); err != nil {
				return w.Synced(), err
			}
		}
		n, err := w.Sync()
		if err != nil {
			return n, err
		}
		s.mu.Lock()
		rotated := s.wal != w
		s.mu.Unlock()
		if !rotated {
			return n, nil
		}
	}
}

// SyncedLSN returns the byte offset the WAL is known durable through.
func (s *Store) SyncedLSN() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.Synced()
}

// SetSyncHook installs a fault-injection hook, called before every Sync
// and Commit; a non-nil error is returned instead of syncing, leaving the
// buffered WAL tail unflushed — a crashed disk, as far as callers can
// tell. Testing only.
func (s *Store) SetSyncHook(h func() error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncHook = h
}

// SetCheckpointHook installs a crash-injection hook called at named stages
// of an incremental checkpoint: "snapshot" with the temp snapshot written
// but not yet renamed into place, and "truncate" with the snapshot durable
// but the WAL not yet truncated. A non-nil error aborts the checkpoint at
// that point, leaving exactly the on-disk state a crash there would leave.
// Testing only.
func (s *Store) SetCheckpointHook(h func(stage string) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ckptHook = h
}

func (s *Store) checkpointStage(stage string) error {
	s.mu.Lock()
	h := s.ckptHook
	s.mu.Unlock()
	if h == nil {
		return nil
	}
	return h(stage)
}

// Commit makes all logged operations durable (flush + fsync).
func (s *Store) Commit() error {
	_, err := s.Sync()
	return err
}

// WALSize returns the WAL length in bytes, including buffered data.
func (s *Store) WALSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.Size()
}

// Checkpoint writes a fresh snapshot of the full database and truncates
// the WAL, holding the store lock for the duration — commits stall until
// the snapshot is written. Servers use the incremental CheckpointFrom path
// instead, which keeps commits flowing; this remains for callers without a
// frozen view.
func (s *Store) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.DB == nil {
		return errors.New("db: Checkpoint on a detached store; use CheckpointFrom")
	}
	if _, err := s.wal.Sync(); err != nil {
		return err
	}
	err := writeSnapshotFile(s.snapPath, s.lastLSN, uint64(s.DB.Size()), func(w *bufio.Writer) error {
		for _, ra := range s.DB.Relations() {
			for _, row := range s.DB.Tuples(ra.Pred, ra.Arity) {
				if _, err := w.Write(encodeRecord(true, ra.Pred, ra.Arity, term.KeyOf(row))); err != nil {
					return err
				}
			}
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}
	old := s.wal
	if err := os.Remove(s.walPath); err != nil && !os.IsNotExist(err) {
		return err
	}
	wal, err := OpenWAL(s.walPath)
	if err != nil {
		return err
	}
	if err := syncDir(s.walPath); err != nil {
		wal.Close()
		return err
	}
	s.wal = wal
	return old.retire()
}

// CheckpointFrom writes a snapshot of the frozen view f — the committed
// state as of commit lsn — and truncates the WAL prefix its blocks occupy,
// WITHOUT taking the store mutex for the expensive part: f is immutable,
// so the snapshot write runs concurrently with commits. Only the final log
// rotation excludes appenders, for the duration of a small suffix copy
// (post-checkpoint blocks only). The caller guarantees f is exactly the
// committed state at lsn.
func (s *Store) CheckpointFrom(f FrozenDB, lsn uint64) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	err := writeSnapshotFile(s.snapPath, lsn, uint64(f.Size()), func(w *bufio.Writer) error {
		var werr error
		f.Range(func(pred string, arity int, key string, _ []term.Term) bool {
			_, werr = w.Write(encodeRecord(true, pred, arity, key))
			return werr == nil
		})
		return werr
	}, func() error { return s.checkpointStage("snapshot") })
	if err != nil {
		return err
	}
	if err := s.checkpointStage("truncate"); err != nil {
		return err
	}
	return s.truncateWALThrough(lsn)
}

// truncateWALThrough rotates the log: every commit block at or below lsn
// (now covered by the snapshot) is dropped, the suffix is copied into a
// fresh log, and the store switches to it. The cut-point scan runs
// lock-free — bytes before the append point are immutable — so commits
// stall only for the suffix copy, never for the scan or the snapshot write.
func (s *Store) truncateWALThrough(lsn uint64) error {
	// The block at lsn must be on disk before the scan can find it (it may
	// still be buffered). The sync also keeps the crash window closed: past
	// this point the prefix is durable in the snapshot and the rest is
	// durable in the log, so losing the prefix to the rotation is safe.
	if _, err := s.Sync(); err != nil {
		return err
	}
	cut := int64(len(walMagic))
	if err := scanWALFile(s.walPath, func(e walEntry, end int64) bool {
		if e.boundary {
			if e.lsn <= lsn {
				cut = end
			}
			if e.lsn >= lsn {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.wal
	// Drain the append buffer so the file holds everything; new appends are
	// excluded by the store mutex for the rest of the rotation.
	if _, err := old.Sync(); err != nil {
		return err
	}
	size := old.Size()
	tmp := s.walPath + ".tmp"
	out, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := out.WriteString(walMagic); err != nil {
		out.Close()
		return err
	}
	if cut < size {
		if _, err := io.Copy(out, io.NewSectionReader(old.f, cut, size-cut)); err != nil {
			out.Close()
			return err
		}
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.walPath); err != nil {
		return err
	}
	if err := syncDir(s.walPath); err != nil {
		return err
	}
	fresh, err := OpenWAL(s.walPath)
	if err != nil {
		return err
	}
	s.wal = fresh
	return old.retire()
}

// Close syncs and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.wal.Sync(); err != nil {
		s.wal.Close()
		return err
	}
	return s.wal.Close()
}
