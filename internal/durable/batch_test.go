package durable

import (
	"fmt"
	"math"
	"os"
	"testing"
)

// testBatch builds n statements with deterministic content starting at i0.
func testBatch(i0, n int) []Statement {
	out := make([]Statement, n)
	for i := range out {
		out[i] = Statement{Label: fmt.Sprintf("L%d", (i0+i)%3), SQL: fmt.Sprintf("SELECT a FROM t WHERE a = %d", i0+i)}
	}
	return out
}

// reopenTail opens dir and returns the store with its recovered WAL tail.
func reopenTail(t *testing.T, dir string) (*Store, []Record) {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, tail, err := s.Recover()
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	return s, tail
}

// TestBatchIsOneFrameOneFsync pins group commit in the store's own
// counters: a batch advances the sequence and Appends by its statement
// count and Fsyncs by one; FsyncEvery counts statements and is checked
// once per frame; a batch of one is the frame AppendStatement writes.
func TestBatchIsOneFrameOneFsync(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for b := 0; b < 3; b++ {
		first, err := s.AppendBatch(testBatch(10*b, 10))
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(10*b + 1); first != want {
			t.Fatalf("batch %d starts at seq %d, want %d", b, first, want)
		}
	}
	if st := s.Stats(); st.Appends != 30 || st.Fsyncs != 3 || st.LastSeq != 30 || s.LastSeq() != 30 {
		t.Fatalf("after 3 batches of 10: %+v, want 30 appends, 3 fsyncs, last seq 30", st)
	}
	if _, err := s.AppendBatch(nil); err == nil {
		t.Fatal("an empty batch was appended")
	}
	before := s.Stats()
	if _, err := s.AppendBatch(testBatch(30, 1)); err != nil {
		t.Fatal(err)
	}
	one := s.Stats().AppendedBytes - before.AppendedBytes
	if _, err := s.AppendStatement("L0", "SELECT a FROM t WHERE a = 30"); err != nil {
		t.Fatal(err)
	}
	if same := s.Stats().AppendedBytes - before.AppendedBytes - one; same != one {
		t.Fatalf("a batch of one wrote %d bytes, AppendStatement %d: not the same frame", one, same)
	}

	lazy, err := Open(t.TempDir(), Options{FsyncEvery: 25})
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	for b, want := range []int64{0, 0, 1, 1, 1, 2} { // 10, 20, 30 waiting -> sync; 10, 20, 30 -> sync
		if _, err := lazy.AppendBatch(testBatch(10*b, 10)); err != nil {
			t.Fatal(err)
		}
		if st := lazy.Stats(); st.Fsyncs != want {
			t.Fatalf("FsyncEvery=25 after %d batches of 10: %d fsyncs, want %d", b+1, st.Fsyncs, want)
		}
	}
}

// TestBatchFrameTornEveryByte cuts a batch frame at every byte offset: a
// torn batch is gone whole — the log reopens to exactly the sequence
// before it, is repaired to that frame boundary and keeps appending from
// there — and only the complete frame brings all of its statements.
func TestBatchFrameTornEveryByte(t *testing.T) {
	ref := t.TempDir()
	s, err := Open(ref, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 3)
	preBatch := s.Stats().AppendedBytes
	if _, err := s.AppendBatch(testBatch(3, 8)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(segPath(ref, 1))
	if err != nil {
		t.Fatal(err)
	}
	for cut := preBatch; cut <= int64(len(clean)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), clean[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, tail := reopenTail(t, dir)
		wantSeq, wantSize := uint64(3), preBatch
		if cut == int64(len(clean)) {
			wantSeq, wantSize = 11, cut
		}
		if s.LastSeq() != wantSeq || uint64(len(tail)) != wantSeq {
			t.Fatalf("cut %d: reopened to seq %d with %d records, want %d", cut, s.LastSeq(), len(tail), wantSeq)
		}
		if info, err := os.Stat(segPath(dir, 1)); err != nil || info.Size() != wantSize {
			t.Fatalf("cut %d: repaired size %v (err %v), want %d", cut, info, err, wantSize)
		}
		if st := s.Stats(); st.TruncatedBytes != cut-wantSize {
			t.Fatalf("cut %d: truncated %d bytes, want %d", cut, st.TruncatedBytes, cut-wantSize)
		}
		if first, err := s.AppendBatch(testBatch(0, 2)); err != nil || first != wantSeq+1 {
			t.Fatalf("cut %d: next batch starts at %d (err %v), want %d", cut, first, err, wantSeq+1)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMixedFrameKindsRecoverInOrder is the compatibility pin: a log of
// "stmt" frames (all a store wrote before batches existed), then "batch"
// frames, then a "reset", recovers as one record per sequence, in order,
// each with its own label and SQL.
func TestMixedFrameKindsRecoverInOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 256}) // the batches straddle rotations
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 2)
	for _, b := range [][2]int{{2, 3}, {5, 2}} {
		if _, err := s.AppendBatch(testBatch(b[0], b[1])); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AppendReset(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendBatch(testBatch(7, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, tail := reopenTail(t, dir)
	defer s2.Close()
	if len(tail) != 10 {
		t.Fatalf("recovered %d records, want 10: %+v", len(tail), tail)
	}
	stmt := 0
	for i, rec := range tail {
		want := Record{Seq: uint64(i + 1), Kind: RecordReset}
		if i != 7 {
			st := testBatch(stmt, 1)[0]
			want = Record{Seq: uint64(i + 1), Kind: RecordStatement, Label: st.Label, SQL: st.SQL}
			stmt++
		}
		if rec != want {
			t.Fatalf("record %d is %+v, want %+v", i, rec, want)
		}
	}
}

// TestSnapshotInsideBatch pins recovery from a snapshot whose sequence
// falls inside a batch: only the batch's later statements replay.
func TestSnapshotInsideBatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendBatch(testBatch(0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(testSnapshot(3, "mid")); err != nil {
		t.Fatal(err)
	}
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
	if snap == nil || snap.Seq != 3 {
		t.Fatalf("recovered snapshot %+v, want seq 3", snap)
	}
	if len(tail) != 2 || tail[0].Seq != 4 || tail[1].Seq != 5 || tail[1].SQL != testBatch(4, 1)[0].SQL {
		t.Fatalf("tail after a snapshot inside the batch: %+v, want its statements 4 and 5", tail)
	}
}

// TestBrokenBatchEndsTheLog pins that a batch frame with a sound CRC but
// no statements, or whose sequences would wrap, is a broken chain: the
// log is truncated in front of it like any undecodable record.
func TestBrokenBatchEndsTheLog(t *testing.T) {
	for _, payload := range []string{
		`{"seq":3,"kind":"batch"}`,
		`{"seq":3,"kind":"batch","stmts":[]}`,
		`{"seq":4,"kind":"batch","stmts":[{"sql":"SELECT a FROM t WHERE a = 1"}]}`, // skips a sequence
	} {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, s, 2)
		good := s.Stats().AppendedBytes
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(segPath(dir, 1), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		bad := appendFrame(nil, []byte(payload))
		bad = appendFrame(bad, []byte(`{"seq":3,"kind":"stmt","sql":"SELECT a FROM t WHERE a = 2"}`))
		if _, err := f.Write(bad); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		s2, tail := reopenTail(t, dir)
		if len(tail) != 2 || s2.LastSeq() != 2 || s2.Stats().TruncatedBytes != int64(len(bad)) {
			t.Fatalf("%s: recovered %d records to seq %d, truncated %d of %d bytes past byte %d",
				payload, len(tail), s2.LastSeq(), s2.Stats().TruncatedBytes, len(bad), good)
		}
		s2.Close()
	}
	// No segment can be named for a first sequence near the top of the
	// range, so the wrap is pinned at the decoder.
	wraps := fmt.Sprintf(`{"seq":%d,"kind":"batch","stmts":[{"sql":"a"},{"sql":"b"}]}`, uint64(math.MaxUint64-1))
	if recs, err := decodeRecords([]byte(wraps)); err == nil {
		t.Fatalf("a batch that wraps the sequence decoded to %+v", recs)
	}
	fits := fmt.Sprintf(`{"seq":%d,"kind":"batch","stmts":[{"sql":"a"},{"sql":"b"}]}`, uint64(math.MaxUint64-2))
	if recs, err := decodeRecords([]byte(fits)); err != nil || len(recs) != 2 || recs[1].Seq != math.MaxUint64-1 {
		t.Fatalf("a batch ending below the top of the range: %+v, %v", recs, err)
	}
}

// TestFailedAppendStopsTheStore pins the one case in which an append's
// error does not mean "nothing happened": the frame was written and its
// fsync failed (a pipe takes the write and refuses the sync). The
// sequence has moved, so the store must refuse everything after it until
// the directory is reopened.
func TestFailedAppendStopsTheStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendBatch(testBatch(0, 4)); err != nil {
		t.Fatal(err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	segment := s.active
	s.active = pw
	defer segment.Close()

	if _, err := s.AppendBatch(testBatch(4, 8)); err == nil {
		t.Fatal("a batch whose fsync failed was acknowledged")
	}
	if got := s.LastSeq(); got != 12 {
		t.Fatalf("last seq %d after the written-not-synced batch, want 12", got)
	}
	before := s.Stats()
	if _, err := s.AppendBatch(testBatch(12, 2)); err == nil {
		t.Fatal("the store took an append after a failed one")
	}
	if _, err := s.AppendStatement("L", "SELECT a FROM t"); err == nil {
		t.Fatal("the store took a statement after a failed append")
	}
	if err := s.Sync(); err == nil {
		t.Fatal("the store synced after a failed append")
	}
	if err := s.WriteSnapshot(&Snapshot{Seq: 4}); err == nil {
		t.Fatal("the store wrote a snapshot after a failed append")
	}
	if after := s.Stats(); after != before {
		t.Fatalf("a stopped store moved its counters: %+v, was %+v", after, before)
	}
	s.Close()

	// The pipe swallowed the frame: the directory holds the acknowledged
	// prefix and reopens to it.
	s, tail := reopenTail(t, dir)
	defer s.Close()
	if len(tail) != 4 || s.LastSeq() != 4 {
		t.Fatalf("reopened to %d records, last seq %d; want the 4 acknowledged", len(tail), s.LastSeq())
	}
}
