package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dyndesign/internal/core"
	"dyndesign/internal/workload"
)

// appendN appends n statement records with deterministic content and
// returns the cumulative byte offset after each append (frame
// boundaries, starting at 0).
func appendN(t *testing.T, s *Store, n int) []int64 {
	t.Helper()
	boundaries := []int64{0}
	for i := 0; i < n; i++ {
		if _, err := s.AppendStatement(fmt.Sprintf("L%d", i%3), fmt.Sprintf("SELECT a FROM t WHERE a = %d", i)); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, s.Stats().AppendedBytes)
	}
	return boundaries
}

func TestWALAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 5)
	if _, err := s.AppendReset(); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, tail, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatalf("unexpected snapshot: %+v", snap)
	}
	if len(tail) != 8 {
		t.Fatalf("recovered %d records, want 8", len(tail))
	}
	for i, rec := range tail {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
		wantKind := RecordStatement
		if i == 5 {
			wantKind = RecordReset
		}
		if rec.Kind != wantKind {
			t.Fatalf("record %d kind %q, want %q", i, rec.Kind, wantKind)
		}
	}
	// The sequence continues where the previous process stopped.
	seq, err := s2.AppendStatement("", "SELECT a FROM t WHERE a = 9")
	if err != nil {
		t.Fatal(err)
	}
	if seq != 9 {
		t.Fatalf("continued seq %d, want 9", seq)
	}
}

// TestWALTornTailTruncationEveryByte is the exhaustive torn-tail sweep
// the satellite asks for: a small log truncated at EVERY byte offset
// must recover exactly the records whose frames are complete, repair
// the file to that frame boundary, and accept appends afterwards.
func TestWALTornTailTruncationEveryByte(t *testing.T) {
	ref := t.TempDir()
	s, err := Open(ref, Options{})
	if err != nil {
		t.Fatal(err)
	}
	boundaries := appendN(t, s, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segName := segPath(ref, 1)
	clean, err := os.ReadFile(segName)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(clean)) != boundaries[len(boundaries)-1] {
		t.Fatalf("segment is %d bytes, boundaries say %d", len(clean), boundaries[len(boundaries)-1])
	}

	// wholeFrames(L) = how many records survive a cut at byte L.
	wholeFrames := func(cut int64) int {
		n := 0
		for _, b := range boundaries[1:] {
			if b <= cut {
				n++
			}
		}
		return n
	}
	for cut := int64(0); cut <= int64(len(clean)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), clean[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		_, tail, err := s.Recover()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := wholeFrames(cut)
		if len(tail) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(tail), want)
		}
		wantSize := boundaries[want]
		if info, err := os.Stat(segPath(dir, 1)); err != nil || info.Size() != wantSize {
			t.Fatalf("cut %d: repaired size %v (err %v), want %d", cut, info, err, wantSize)
		}
		if cut > wantSize {
			if st := s.Stats(); st.TruncatedBytes != cut-wantSize {
				t.Fatalf("cut %d: truncated %d bytes, want %d", cut, st.TruncatedBytes, cut-wantSize)
			}
		}
		// The repaired log keeps appending from the right sequence.
		seq, err := s.AppendStatement("", "SELECT a FROM t WHERE a = 99")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if seq != uint64(want+1) {
			t.Fatalf("cut %d: append got seq %d, want %d", cut, seq, want+1)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 12)
	st := s.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected >= 3 segments at 128-byte rotation, got %d", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	_, tail, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 12 {
		t.Fatalf("recovered %d records across segments, want 12", len(tail))
	}
}

// testSnapshot builds a small but fully populated snapshot at seq.
func testSnapshot(seq uint64, marker string) *Snapshot {
	return &Snapshot{
		Seq: seq,
		Window: workload.WindowState{
			Name: "live", Cap: 4, Total: int64(seq), Seq: seq,
			Statements: []workload.WindowStatement{{Label: marker, SQL: "SELECT a FROM t WHERE a = 1"}},
		},
		Installed:        core.ConfigOf(1),
		LastKnownGood:    &core.Solution{Designs: []core.Config{core.ConfigOf(1)}, Cost: 42.5, ExecCost: 40, TransCost: 2.5, Changes: 1},
		StatsFingerprint: 0xfeed,
	}
}

func TestSnapshotRoundTripAndFallback(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 6)
	if err := s.WriteSnapshot(testSnapshot(4, "old")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(testSnapshot(6, "new")); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 2) // seqs 7, 8: the tail after the newest snapshot
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, tail, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Seq != 6 || snap.Window.Statements[0].Label != "new" {
		t.Fatalf("recovered snapshot %+v, want the seq-6 generation", snap)
	}
	if snap.Installed != core.ConfigOf(1) || snap.LastKnownGood == nil || snap.LastKnownGood.Cost != 42.5 ||
		snap.StatsFingerprint != 0xfeed {
		t.Fatalf("snapshot payload mangled: %+v", snap)
	}
	if len(tail) != 2 || tail[0].Seq != 7 || tail[1].Seq != 8 {
		t.Fatalf("tail after snapshot: %+v", tail)
	}
	s2.Close()

	// Corrupt the newest snapshot: recovery must fall back to the older
	// generation and count the discard.
	raw, err := os.ReadFile(snapPath(dir, 6))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(snapPath(dir, 6), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	snap, tail, err = s3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Seq != 4 || snap.Window.Statements[0].Label != "old" {
		t.Fatalf("fallback snapshot %+v, want the seq-4 generation", snap)
	}
	if len(tail) != 4 || tail[0].Seq != 5 {
		t.Fatalf("fallback tail: %+v", tail)
	}
	if st := s3.Stats(); st.SnapshotsDiscarded != 1 {
		t.Fatalf("SnapshotsDiscarded = %d, want 1", st.SnapshotsDiscarded)
	}
}

func TestSnapshotPruneAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 10)
	for _, seq := range []uint64{3, 6, 9} {
		if err := s.WriteSnapshot(testSnapshot(seq, "gen")); err != nil {
			t.Fatal(err)
		}
	}
	// Only the two newest snapshots survive.
	if seqs := s.snapshotSeqs(); len(seqs) != 2 || seqs[0] != 6 || seqs[1] != 9 {
		t.Fatalf("retained snapshots %v, want [6 9]", seqs)
	}
	// Every WAL segment fully covered by the OLDEST retained snapshot
	// (seq 6) is gone; records after 6 are still on disk.
	for _, seg := range s.segments {
		if seg.last <= 6 && seg.last >= seg.first {
			t.Fatalf("segment %s (last %d) should have been compacted", seg.path, seg.last)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Both retained snapshots still anchor a full recovery.
	s2, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, tail, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Seq != 9 || len(tail) != 1 || tail[0].Seq != 10 {
		t.Fatalf("recovery after compaction: snap %+v tail %+v", snap, tail)
	}
}

func TestCorruptionMidLogDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 12)
	if s.Stats().Segments < 3 {
		t.Fatalf("fixture needs >= 3 segments, got %d", s.Stats().Segments)
	}
	firstPath := s.segments[0].path
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the FIRST segment: the log ends at the corrupt
	// frame and every later segment is unreachable, hence dropped.
	raw, err := os.ReadFile(firstPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-5] ^= 0xff
	if err := os.WriteFile(firstPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.DroppedSegments == 0 {
		t.Fatalf("no segments dropped: %+v", st)
	}
	_, tail, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) >= 12 {
		t.Fatalf("recovered %d records from a mid-corrupted log", len(tail))
	}
	for i, rec := range tail {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("recovered tail is not a prefix: %+v", tail)
		}
	}
}

func TestLockExclusionAndRelease(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open of a locked dir succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, lockName)); !os.IsNotExist(err) {
		t.Fatalf("LOCK file survived Close: %v", err)
	}
	// A leftover LOCK file from a SIGKILLed process holds no flock, so
	// reopening succeeds.
	if err := os.WriteFile(filepath.Join(dir, lockName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after simulated crash: %v", err)
	}
	s2.Close()
}

func TestFsyncBatching(t *testing.T) {
	dir := t.TempDir()
	hooks := 0
	s, err := Open(dir, Options{FsyncEvery: 3, BeforeSync: func() { hooks++ }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, 7)
	if st := s.Stats(); st.Fsyncs != 2 {
		t.Fatalf("Fsyncs after 7 appends at FsyncEvery=3: %d, want 2", st.Fsyncs)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Fsyncs != 3 {
		t.Fatalf("Fsyncs after explicit Sync: %d, want 3", st.Fsyncs)
	}
	if hooks != 3 {
		t.Fatalf("BeforeSync ran %d times, want 3", hooks)
	}
	// A drained log does not re-sync.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Fsyncs != 3 {
		t.Fatalf("empty Sync still fsynced: %d", st.Fsyncs)
	}
}

func TestStaleSnapshotTempRemoved(t *testing.T) {
	dir := t.TempDir()
	tmp := snapPath(dir, 3) + tmpSuffix
	if err := os.WriteFile(tmp, []byte("half a snapsho"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale snapshot temp file survived Open: %v", err)
	}
	if snap, tail, err := s.Recover(); err != nil || snap != nil || len(tail) != 0 {
		t.Fatalf("recovery saw ghost state: snap %+v tail %+v err %v", snap, tail, err)
	}
}
