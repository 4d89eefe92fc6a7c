package durable

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"dyndesign/internal/chaos"
)

// RecordKind tags a WAL record.
type RecordKind string

const (
	// RecordStatement is one ingested statement.
	RecordStatement RecordKind = "stmt"
	// RecordReset marks a tumbling-window epoch boundary, so recovery
	// replays resets in stream order instead of resurrecting a window
	// the service had already emptied.
	RecordReset RecordKind = "reset"
	// recordBatch exists on disk only: one frame holding the statements
	// of one acknowledged ingest batch. Recovery hands its statements
	// out as RecordStatement records.
	recordBatch RecordKind = "batch"
)

// Record is one WAL entry. Seq is assigned by the store and is strictly
// sequential — recovery verifies the chain and treats any break as the
// end of the log.
type Record struct {
	Seq   uint64     `json:"seq"`
	Kind  RecordKind `json:"kind"`
	Label string     `json:"label,omitempty"`
	SQL   string     `json:"sql,omitempty"`
}

// Statement is one label/SQL pair of an ingest batch.
type Statement struct {
	Label string `json:"label,omitempty"`
	SQL   string `json:"sql"`
}

// frameRecord is the JSON inside one WAL frame: a Record, or — kind
// "batch" — the first sequence of a batch and its statements, which own
// the sequences Seq … Seq+len(Stmts)-1. A frame is the unit of the CRC
// and of the torn-tail rule, so a batch is on disk whole or not at all.
// Logs written before the batch kind existed hold "stmt" and "reset"
// frames only and decode unchanged; the two mix freely.
type frameRecord struct {
	Record
	Stmts []Statement `json:"stmts,omitempty"`
}

// decodeRecords parses one frame's payload into the records it stands
// for, one per sequence, oldest first. A batch with no statements, or
// one whose sequences would wrap, is as undecodable as bad JSON: the
// caller ends the log there.
func decodeRecords(payload []byte) ([]Record, error) {
	var fr frameRecord
	if err := json.Unmarshal(payload, &fr); err != nil {
		return nil, err
	}
	if fr.Kind != recordBatch {
		return []Record{fr.Record}, nil
	}
	n := uint64(len(fr.Stmts))
	if n == 0 {
		return nil, fmt.Errorf("batch record %d holds no statements", fr.Seq)
	}
	if fr.Seq > math.MaxUint64-n {
		return nil, fmt.Errorf("batch record %d with %d statements overflows the sequence", fr.Seq, n)
	}
	recs := make([]Record, n)
	for i, st := range fr.Stmts {
		recs[i] = Record{Seq: fr.Seq + uint64(i), Kind: RecordStatement, Label: st.Label, SQL: st.SQL}
	}
	return recs, nil
}

// keepSnapshots is how many snapshot generations a Store retains: the
// newest plus one fallback. WAL segments are only compacted up to the
// oldest retained snapshot, so every retained snapshot can still be the
// recovery base.
const keepSnapshots = 2

// Options tunes a Store. Zero values get crash-safe defaults.
type Options struct {
	// FsyncEvery batches WAL fsyncs: an append syncs the log once, after
	// its frame, when FsyncEvery or more records (one per sequence, so a
	// batch of n counts n) are waiting — default 1: every append ends in
	// a sync, the setting under which an acknowledged ingest is durable.
	// Larger values trade the tail of un-synced records for throughput;
	// clients that resume from the recovered statement count are safe
	// either way.
	FsyncEvery int
	// SegmentBytes rotates the WAL to a fresh segment file once the
	// active one reaches this size (default 4 MiB).
	SegmentBytes int64
	// BeforeSync, when non-nil, runs before every WAL fsync — the
	// chaos/test seam for modeling a stalled disk.
	BeforeSync func()
}

func (o Options) withDefaults() Options {
	if o.FsyncEvery < 1 {
		o.FsyncEvery = 1
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Appends counts WAL records written this process, one per sequence
	// (a batch frame of n statements counts n), AppendedBytes their
	// frames' bytes; Fsyncs counts WAL and snapshot file syncs — one per
	// frame at FsyncEvery=1, so Fsyncs/Appends is where group commit
	// shows.
	Appends       int64
	AppendedBytes int64
	Fsyncs        int64
	// Segments is the current WAL segment file count; LastSeq the
	// newest durable-or-pending record sequence.
	Segments int
	LastSeq  uint64
	// TruncatedBytes is how many torn-tail bytes recovery cut off at
	// open; DroppedSegments how many unreachable segments (beyond a
	// truncation point) it deleted.
	TruncatedBytes  int64
	DroppedSegments int64
	// Snapshots counts snapshots written this process;
	// SnapshotsDiscarded counts invalid snapshot files skipped during
	// recovery; LastSnapshotSeq is the newest snapshot's sequence.
	Snapshots          int64
	SnapshotsDiscarded int64
	LastSnapshotSeq    uint64
}

// segment describes one WAL segment file. first is the sequence of its
// first record (encoded in the filename); last is the newest record it
// holds, first-1 while empty.
type segment struct {
	path  string
	first uint64
	last  uint64
	size  int64
}

// Store is the durable state of one advisord data directory. An append
// — one statement, one reset marker or one whole ingest batch — is one
// CRC frame, written and (FsyncEvery permitting) synced once. Appends
// and snapshot writes are serialized behind one mutex; a flock'd LOCK
// file keeps a second process from appending to the same log (the lock
// dies with the process, so a SIGKILL never wedges the directory).
//
// The store fail-stops: an append that errors once its frame has begun
// to reach the file (short write, failed fsync, failed rotation) leaves
// bytes this process cannot take back, so every later append, sync and
// snapshot answers that error until the directory is reopened, where
// recovery keeps the frame if it is whole and cuts it if it is torn.
type Store struct {
	dir  string
	opts Options
	lock *os.File

	mu       sync.Mutex
	active   *os.File
	segments []segment
	nextSeq  uint64
	pending  int // records appended since the last fsync
	closed   bool
	failed   error // the append error the store stopped at

	stats Stats
}

const (
	lockName   = "LOCK"
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"
)

func segPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", segPrefix, first, segSuffix))
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", snapPrefix, seq, snapSuffix))
}

// parseSeq extracts the sequence number from a segment or snapshot
// filename, reporting false for foreign files.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	var seq uint64
	if _, err := fmt.Sscanf(mid, "%d", &seq); err != nil || len(mid) != 16 {
		return 0, false
	}
	return seq, true
}

// Open locks dir (creating it if needed), repairs the WAL's torn tail,
// and positions the store for appending. Leftover LOCK files from a
// killed process are harmless: the advisory flock died with it.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("durable: data dir %s is locked by another advisord: %w", dir, err)
	}
	s := &Store{dir: dir, opts: opts, lock: lock}
	if err := s.scan(); err != nil {
		s.unlock()
		return nil, err
	}
	return s, nil
}

// scan reads the directory: removes stale temp files, repairs the WAL
// tail, verifies segment continuity, and computes the next sequence.
func (s *Store) scan() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var segs []segment
	maxSnapSeq := uint64(0)
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			// A crash mid-snapshot leaves a temp file that was never
			// renamed into place; it is dead by construction.
			_ = os.Remove(filepath.Join(s.dir, name))
			continue
		}
		if first, ok := parseSeq(name, segPrefix, segSuffix); ok {
			segs = append(segs, segment{path: filepath.Join(s.dir, name), first: first})
		}
		if seq, ok := parseSeq(name, snapPrefix, snapSuffix); ok && seq > maxSnapSeq {
			maxSnapSeq = seq
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })

	// Walk the segments oldest first, verifying the frame chain. The
	// first bad frame — torn header, short payload, CRC mismatch, or a
	// broken sequence — ends the log: the segment is truncated there
	// and every later segment is dropped.
	logEnded := false
	kept := segs[:0]
	for i := range segs {
		seg := &segs[i]
		if logEnded || (len(kept) > 0 && seg.first != kept[len(kept)-1].last+1) {
			s.stats.DroppedSegments++
			if err := os.Remove(seg.path); err != nil {
				return err
			}
			logEnded = true
			continue
		}
		truncAt, last, err := scanSegment(seg.path, seg.first)
		if err != nil {
			return err
		}
		seg.last = last
		if truncAt >= 0 {
			info, err := os.Stat(seg.path)
			if err != nil {
				return err
			}
			s.stats.TruncatedBytes += info.Size() - truncAt
			if err := os.Truncate(seg.path, truncAt); err != nil {
				return err
			}
			seg.size = truncAt
			logEnded = true
		} else {
			info, err := os.Stat(seg.path)
			if err != nil {
				return err
			}
			seg.size = info.Size()
		}
		kept = append(kept, *seg)
	}
	s.segments = kept

	s.nextSeq = maxSnapSeq + 1
	if n := len(s.segments); n > 0 {
		if last := s.segments[n-1].last + 1; last > s.nextSeq {
			s.nextSeq = last
		}
		// An empty trailing segment still fixes the floor: it was
		// created after records that a snapshot may have compacted away.
		if first := s.segments[n-1].first; first > s.nextSeq {
			s.nextSeq = first
		}
	}
	if s.nextSeq == 0 {
		s.nextSeq = 1
	}

	// Open (or create) the active segment for appending.
	if len(s.segments) == 0 {
		if err := s.newSegment(s.nextSeq); err != nil {
			return err
		}
	} else {
		tail := &s.segments[len(s.segments)-1]
		f, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		s.active = f
	}
	s.stats.Segments = len(s.segments)
	s.stats.LastSeq = s.nextSeq - 1
	s.stats.LastSnapshotSeq = maxSnapSeq
	return nil
}

// scanSegment validates one segment's frames. It returns the byte
// offset to truncate at (-1 if the segment is clean) and the sequence
// of the last valid record (first-1 when none).
func scanSegment(path string, first uint64) (truncAt int64, last uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := &countingReader{r: f}
	offset := int64(0)
	expect := first
	for {
		payload, err := readFrame(r)
		if err == io.EOF {
			return -1, expect - 1, nil
		}
		if err != nil {
			return offset, expect - 1, nil // torn tail: cut here
		}
		recs, err := decodeRecords(payload)
		if err != nil || recs[0].Seq != expect {
			return offset, expect - 1, nil // undecodable or broken chain
		}
		expect += uint64(len(recs))
		offset = r.n
	}
}

// countingReader tracks how many bytes readFrame consumed, so the
// truncation offset lands exactly on the last good frame boundary.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// newSegment creates and activates a fresh segment whose first record
// will be seq. Called with mu held (or during scan, pre-concurrency).
func (s *Store) newSegment(seq uint64) error {
	f, err := os.OpenFile(segPath(s.dir, seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := s.syncDir(); err != nil {
		f.Close()
		return err
	}
	if s.active != nil {
		s.active.Close()
	}
	s.active = f
	s.segments = append(s.segments, segment{path: f.Name(), first: seq, last: seq - 1})
	s.stats.Segments = len(s.segments)
	return nil
}

// syncDir fsyncs the data directory, making renames and file creations
// durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// AppendStatement appends one ingested statement and returns its
// sequence. Under the default FsyncEvery=1 the record is durable when
// the call returns — the property that makes an acknowledged ingest
// survive a SIGKILL.
func (s *Store) AppendStatement(label, sql string) (uint64, error) {
	return s.append(frameRecord{Record: Record{Kind: RecordStatement, Label: label, SQL: sql}}, 1)
}

// AppendBatch appends the statements of one ingest batch as one frame —
// one write, one fsync under the FsyncEvery rule — and returns the
// sequence of the first; the rest follow it one by one. Recovery sees
// all of the batch or none of it. A batch of one is written as the
// "stmt" frame AppendStatement writes. An error means the batch is not
// acknowledged, not that it is absent: one raised after the write began
// may leave the frame in the log, and stops the store (see Store).
func (s *Store) AppendBatch(stmts []Statement) (uint64, error) {
	switch len(stmts) {
	case 0:
		return 0, fmt.Errorf("durable: empty batch")
	case 1:
		return s.AppendStatement(stmts[0].Label, stmts[0].SQL)
	}
	return s.append(frameRecord{Record: Record{Kind: recordBatch}, Stmts: stmts}, len(stmts))
}

// AppendReset appends a tumbling-window epoch boundary marker.
func (s *Store) AppendReset() (uint64, error) {
	return s.append(frameRecord{Record: Record{Kind: RecordReset}}, 1)
}

// usableLocked reports why the store takes no more writes: closed, or
// stopped at a failed append. Called with mu held.
func (s *Store) usableLocked() error {
	if s.closed {
		return fmt.Errorf("durable: store is closed")
	}
	if s.failed != nil {
		return fmt.Errorf("durable: store stopped at a failed append, reopen to recover: %w", s.failed)
	}
	return nil
}

// append writes fr as one frame owning the next n sequences and returns
// the first of them. An error before the frame's first byte (closed
// store, oversized record) leaves the log as it was; an error after it
// stops the store.
func (s *Store) append(fr frameRecord, n int) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return 0, err
	}
	fr.Seq = s.nextSeq
	payload, err := json.Marshal(fr)
	if err != nil {
		return 0, err
	}
	if len(payload) > maxFramePayload {
		// Recovery would read the length as corruption and end the log.
		return 0, fmt.Errorf("durable: a %d-byte record exceeds the %d-byte frame limit", len(payload), maxFramePayload)
	}
	if err := s.writeLocked(appendFrame(nil, payload), fr.Seq+uint64(n)-1, n); err != nil {
		// Half a frame would sit in front of every later append and end
		// the log there at recovery; a frame whose fsync failed may or may
		// not be on disk, and asking again proves nothing (the kernel
		// reports a writeback error once).
		s.failed = err
		return 0, err
	}
	return fr.Seq, nil
}

// writeLocked puts one frame holding n records, the newest of them last,
// at the log's tail: write, sync under the FsyncEvery rule, rotate.
func (s *Store) writeLocked(frame []byte, last uint64, n int) error {
	// Two writes with a crash point between them: a kill here leaves a
	// torn frame on disk, exactly what recovery must truncate.
	half := len(frame) / 2
	if _, err := s.active.Write(frame[:half]); err != nil {
		return err
	}
	chaos.MaybeCrash("wal.append.mid")
	if _, err := s.active.Write(frame[half:]); err != nil {
		return err
	}
	s.nextSeq = last + 1
	s.pending += n
	tail := &s.segments[len(s.segments)-1]
	tail.last = last
	tail.size += int64(len(frame))
	s.stats.Appends += int64(n)
	s.stats.AppendedBytes += int64(len(frame))
	s.stats.LastSeq = last

	if s.pending >= s.opts.FsyncEvery {
		chaos.MaybeCrash("wal.append.presync")
		if err := s.syncLocked(); err != nil {
			return err
		}
		chaos.MaybeCrash("wal.append.post")
	}
	if tail.size >= s.opts.SegmentBytes {
		return s.rotateLocked()
	}
	return nil
}

// syncLocked fsyncs the active segment. Called with mu held.
func (s *Store) syncLocked() error {
	if s.pending == 0 {
		return nil
	}
	if s.opts.BeforeSync != nil {
		s.opts.BeforeSync()
	}
	if err := s.active.Sync(); err != nil {
		return err
	}
	s.stats.Fsyncs++
	s.pending = 0
	return nil
}

// rotateLocked seals the active segment and opens the next one.
func (s *Store) rotateLocked() error {
	if err := s.syncLocked(); err != nil {
		return err
	}
	chaos.MaybeCrash("wal.rotate")
	return s.newSegment(s.nextSeq)
}

// Sync forces the batched WAL tail to disk.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	return s.syncLocked()
}

// LastSeq returns the sequence of the newest appended record (0 when
// the log is empty).
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeq - 1
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close syncs the WAL, releases the directory lock, and removes the
// LOCK file. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.syncLocked()
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	s.unlock()
	return err
}

// unlock removes the LOCK file and releases the flock.
func (s *Store) unlock() {
	_ = os.Remove(filepath.Join(s.dir, lockName))
	_ = syscall.Flock(int(s.lock.Fd()), syscall.LOCK_UN)
	_ = s.lock.Close()
}

// tailRecords reads every WAL record with sequence > after, oldest
// first. Called with mu held or before concurrency starts.
func (s *Store) tailRecords(after uint64) ([]Record, error) {
	var out []Record
	for _, seg := range s.segments {
		if seg.last <= after || seg.last < seg.first {
			continue
		}
		f, err := os.Open(seg.path)
		if err != nil {
			return nil, err
		}
		for {
			payload, err := readFrame(f)
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return nil, corruptionError("segment %s re-read hit a bad frame after repair", seg.path)
			}
			recs, err := decodeRecords(payload)
			if err != nil {
				f.Close()
				return nil, corruptionError("segment %s holds an undecodable record: %v", seg.path, err)
			}
			// A snapshot sequence inside a batch leaves only the batch's
			// later statements to replay.
			for _, rec := range recs {
				if rec.Seq > after {
					out = append(out, rec)
				}
			}
		}
		f.Close()
	}
	return out, nil
}
