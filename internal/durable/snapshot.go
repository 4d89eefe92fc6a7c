package durable

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"dyndesign/internal/alerter"
	"dyndesign/internal/chaos"
	"dyndesign/internal/core"
	"dyndesign/internal/workload"
)

// SnapshotSchemaVersion is the current snapshot format. Recovery skips
// snapshots written under any other version (falling back to an older
// valid file, then to pure WAL replay) instead of misreading them.
const SnapshotSchemaVersion = 1

// Snapshot is the periodically persisted derived state: everything the
// advisor service cannot recompute from the WAL tail alone. Seq is the
// WAL sequence the snapshot folds in — recovery replays only records
// after it.
//
// Deliberately absent: the what-if memo and the solve-cache tables.
// Both are deterministic caches; the first solve over the recovered
// window refills them, so persisting them would add bulk and a
// staleness channel without changing any answer.
type Snapshot struct {
	SchemaVersion int    `json:"schema_version"`
	Seq           uint64 `json:"seq"`
	// Window is the statement ring, oldest first.
	Window workload.WindowState `json:"window"`
	// Installed is the design chain head: the configuration the last
	// published recommendation ends at (C0 of the next solve).
	Installed core.Config `json:"installed"`
	// LastKnownGood backs the resilient ladder's final rung across the
	// restart. Dropped at recovery when the statistics fingerprint
	// changed — its costs were computed in a dead world.
	LastKnownGood *core.Solution `json:"last_known_good,omitempty"`
	// StatsFingerprint is the cost-world epoch (TableStats content
	// hash) the snapshot's cost-derived state was computed under.
	StatsFingerprint uint64 `json:"stats_fingerprint"`
	// Alerter is the drift detector's cost ring and counters.
	Alerter *alerter.State `json:"alerter,omitempty"`
}

// WriteSnapshot atomically persists a snapshot: temp file, fsync,
// rename, directory fsync — a kill at any point leaves either the old
// or the new snapshot, never a half-written one. The WAL is synced
// first so a durable snapshot never references records the log could
// still lose. Afterwards old snapshots beyond keepSnapshots are
// pruned and WAL segments every retained snapshot has folded in are
// deleted.
func (s *Store) WriteSnapshot(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("durable: nil snapshot")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	if snap.Seq >= s.nextSeq {
		return fmt.Errorf("durable: snapshot seq %d beyond the log head %d", snap.Seq, s.nextSeq-1)
	}
	snap.SchemaVersion = SnapshotSchemaVersion
	if err := s.syncLocked(); err != nil {
		return err
	}
	frame, err := encodeSnapshot(snap)
	if err != nil {
		return err
	}

	final := snapPath(s.dir, snap.Seq)
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	// Two writes with a crash point between them: a kill mid-snapshot
	// leaves only a temp file, which recovery discards.
	half := len(frame) / 2
	if _, err := f.Write(frame[:half]); err != nil {
		f.Close()
		return err
	}
	chaos.MaybeCrash("snapshot.tmp")
	if _, err := f.Write(frame[half:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	s.stats.Fsyncs++
	if err := f.Close(); err != nil {
		return err
	}
	chaos.MaybeCrash("snapshot.rename")
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	chaos.MaybeCrash("snapshot.post")
	s.stats.Snapshots++
	s.stats.LastSnapshotSeq = snap.Seq
	s.pruneSnapshotsLocked()
	s.compactLocked()
	return nil
}

// pruneSnapshotsLocked removes snapshot files beyond the retention
// count, oldest first.
func (s *Store) pruneSnapshotsLocked() {
	seqs := s.snapshotSeqs()
	for len(seqs) > keepSnapshots {
		_ = os.Remove(snapPath(s.dir, seqs[0]))
		seqs = seqs[1:]
	}
}

// compactLocked deletes WAL segments whose every record is folded into
// the OLDEST retained snapshot, so any retained snapshot can still
// anchor a recovery. The active segment is never deleted.
func (s *Store) compactLocked() {
	seqs := s.snapshotSeqs()
	if len(seqs) == 0 {
		return
	}
	cover := seqs[0]
	kept := s.segments[:0]
	for i, seg := range s.segments {
		if i < len(s.segments)-1 && s.segments[i+1].first <= cover+1 && seg.last <= cover {
			_ = os.Remove(seg.path)
			continue
		}
		kept = append(kept, seg)
	}
	s.segments = kept
	s.stats.Segments = len(s.segments)
}

// snapshotSeqs lists the snapshot sequences on disk, oldest first.
func (s *Store) snapshotSeqs() []uint64 {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// Recover returns the newest valid snapshot (nil when none exists) and
// the WAL tail after it, oldest first. Snapshot files that fail the CRC
// or carry a foreign schema version are skipped — recovery falls back
// to the previous generation, then to pure WAL replay from sequence
// zero. A WAL tail that does not connect to the chosen snapshot (a gap
// compaction should have made impossible) is real corruption and
// errors out rather than serving a silently incomplete window.
//
// Call Recover once, after Open and before the first append.
func (s *Store) Recover() (*Snapshot, []Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var snap *Snapshot
	seqs := s.snapshotSeqs()
	for i := len(seqs) - 1; i >= 0; i-- {
		loaded, err := readSnapshotFile(snapPath(s.dir, seqs[i]))
		if err != nil {
			s.stats.SnapshotsDiscarded++
			continue
		}
		snap = loaded
		break
	}
	after := uint64(0)
	if snap != nil {
		after = snap.Seq
	}
	tail, err := s.tailRecords(after)
	if err != nil {
		return nil, nil, err
	}
	if len(tail) > 0 && tail[0].Seq != after+1 {
		return nil, nil, corruptionError("WAL tail starts at %d, want %d: log does not connect to the snapshot", tail[0].Seq, after+1)
	}
	for i := 1; i < len(tail); i++ {
		if tail[i].Seq != tail[i-1].Seq+1 {
			return nil, nil, corruptionError("WAL tail breaks at %d -> %d", tail[i-1].Seq, tail[i].Seq)
		}
	}
	return snap, tail, nil
}

// readSnapshotFile loads and validates one snapshot file.
func readSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := decodeSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("durable: snapshot %s: %w", filepath.Base(path), err)
	}
	return snap, nil
}

// encodeSnapshot renders a snapshot file's bytes: one frame around the
// JSON of the snapshot.
func encodeSnapshot(snap *Snapshot) ([]byte, error) {
	payload, err := json.Marshal(snap)
	if err != nil {
		return nil, err
	}
	return appendFrame(nil, payload), nil
}

// decodeSnapshot reads what encodeSnapshot wrote, rejecting a bad frame
// (errBadFrame, or io.EOF for no bytes at all), JSON that is not a
// snapshot, and any schema version but the current one.
func decodeSnapshot(r io.Reader) (*Snapshot, error) {
	payload, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, err
	}
	if snap.SchemaVersion != SnapshotSchemaVersion {
		return nil, fmt.Errorf("schema version %d, want %d", snap.SchemaVersion, SnapshotSchemaVersion)
	}
	return &snap, nil
}
