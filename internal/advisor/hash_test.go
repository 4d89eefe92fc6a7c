package advisor

import (
	"fmt"
	"sync"
	"testing"

	"dyndesign/internal/workload"
)

// checkHashes requires the store to hold a row under every segment's
// fresh segmentHash.
func checkHashes(t *testing.T, memo *ExecMemo, segs []workload.Segment) {
	t.Helper()
	for i, seg := range segs {
		r := memo.rows[segmentHash(seg)]
		if r == nil {
			t.Fatalf("segment %d (statement %d): no row under its fresh hash", i, seg.Start)
		}
	}
}

// TestSlideHashesOnlyTheEnteringSegment pins the hash reuse of a slide:
// a window slid by one segment over a retained store hashes the entering
// segment alone, an unchanged window hashes nothing, a first window
// hashes every segment, and a window slid by two segments hashes both.
func TestSlideHashesOnlyTheEnteringSegment(t *testing.T) {
	_, adv := testAdvisor(t)
	const seg, stages = 5, 12
	stream := distinctStream(seg * (stages + 4))
	opts := Options{K: 2, SegmentSize: seg, Memo: NewMemo(0)}
	for _, step := range []struct {
		lo     int
		hashed int64
	}{{0, stages}, {seg, 1}, {seg, 0}, {3 * seg, 2}, {4 * seg, 1}} {
		rec := slideWindow(t, adv, stream, step.lo, seg*stages, opts)
		if got := rec.Stats.SegmentsHashed; got != step.hashed {
			t.Fatalf("window at %d hashed %d segments, want %d", step.lo, got, step.hashed)
		}
		checkHashes(t, opts.Memo, rec.Segments)
	}
}

// TestReplacedStatementGetsItsOwnRow pins the in-place edit: a window
// whose statement at a retained position was replaced by new text
// re-hashes that statement's segment, and the segment resolves a row of
// its own while every other stage keeps the row it had.
func TestReplacedStatementGetsItsOwnRow(t *testing.T) {
	_, adv := testAdvisor(t)
	const seg, stages, at = 4, 10, 17
	stream := distinctStream(seg * stages)
	opts := Options{K: 2, SegmentSize: seg, Memo: NewMemo(0)}
	p, segs, err := adv.Problem(stream, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := p.Model.(*whatIfModel).rows
	edited := &workload.Workload{Name: "edited", Statements: append([]workload.Statement(nil), stream.Statements...)}
	edited.Statements[at] = workload.MustStatement("SELECT a FROM t WHERE b = 123456")
	p2, segs2, err := adv.Problem(edited, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := p2.Model.(*whatIfModel)
	if m.segmentsHashed != 1 {
		t.Fatalf("an in-place replacement hashed %d segments, want 1", m.segmentsHashed)
	}
	for i, r := range m.rows {
		if i == at/seg {
			if r == before[i] || opts.Memo.rows[segmentHash(segs2[i])] != r || segmentHash(segs2[i]) == segmentHash(segs[i]) {
				t.Fatalf("stage %d: the edited segment did not get a row of its own", i)
			}
			continue
		}
		if r != before[i] {
			t.Fatalf("stage %d: an unchanged segment changed rows", i)
		}
	}
}

// TestDuplicateTextsTakeEqualHashes pins reuse across repeated texts: a
// window built from seven distinct statements, so equal texts and equal
// segments sit at many positions, slid one segment at a time with
// one-statement and three-statement segments. Every hash is a fresh
// segmentHash, equal contents share one row, and each slide hashes the
// entering segment alone.
func TestDuplicateTextsTakeEqualHashes(t *testing.T) {
	_, adv := testAdvisor(t)
	stream := &workload.Workload{Name: "dup"}
	for i := 0; i < 120; i++ {
		stream.Append("", workload.MustStatement(fmt.Sprintf("SELECT a FROM t WHERE a = %d", i%7)))
	}
	for _, seg := range []int{1, 3} {
		opts := Options{K: 2, SegmentSize: seg, Memo: NewMemo(0)}
		for lo := 0; lo < 20*seg; lo += seg {
			p, segs, err := adv.Problem(stream.Slice(lo, lo+60), opts)
			if err != nil {
				t.Fatal(err)
			}
			checkHashes(t, opts.Memo, segs)
			m := p.Model.(*whatIfModel)
			for i := range segs {
				for j := range segs[:i] {
					if (segmentHash(segs[i]) == segmentHash(segs[j])) != (m.rows[i] == m.rows[j]) {
						t.Fatalf("segment size %d, window at %d: stages %d and %d share rows unlike their contents", seg, lo, j, i)
					}
				}
			}
			want := int64(1)
			if lo == 0 {
				want = int64(len(segs))
			}
			if m.segmentsHashed != want {
				t.Fatalf("segment size %d, window at %d: hashed %d segments, want %d", seg, lo, m.segmentsHashed, want)
			}
		}
	}
}

// TestShiftedBoundariesRehashOnlyChangedSegments slides a labelled
// window by less than a segment: boundaries snap to label changes, so
// the segments of a block realign at the next label and only the ones
// whose statements moved are hashed again.
func TestShiftedBoundariesRehashOnlyChangedSegments(t *testing.T) {
	_, adv := testAdvisor(t)
	stream := distinctStream(120)
	for i := range stream.Labels {
		stream.Labels[i] = fmt.Sprintf("block%d", i/20)
	}
	opts := Options{K: 2, SegmentSize: 8, Memo: NewMemo(0)}
	prev := -1
	for _, lo := range []int{0, 3, 11, 20} {
		p, segs, err := adv.Problem(stream.Slice(lo, lo+80), opts)
		if err != nil {
			t.Fatal(err)
		}
		checkHashes(t, opts.Memo, segs)
		hashed := int(p.Model.(*whatIfModel).segmentsHashed)
		// Blocks of 20 cut into 8 + 8 + 4; a head cut inside the first
		// block re-cuts that block only, and the tail adds the segments
		// of the statements that entered.
		want := 0
		if prev >= 0 {
			fresh := map[uint64]bool{}
			for _, s := range segs {
				fresh[segmentHash(s)] = true
			}
			old, _, _ := adv.Problem(stream.Slice(prev, prev+80), Options{K: 2, SegmentSize: 8})
			for _, s := range old.Model.(*whatIfModel).segs {
				delete(fresh, segmentHash(s))
			}
			want = len(fresh)
		} else {
			want = len(segs)
		}
		if hashed != want {
			t.Fatalf("window at %d hashed %d segments, %d are new", lo, hashed, want)
		}
		prev = lo
	}
}

// FuzzSegmentHashReuse runs random edit scripts — head drops, tail
// appends, in-place replacements, segment-size changes, repeated texts
// and label changes — against one store and requires every hash
// ExecMemo.hashes hands out, reused or not, to equal a fresh
// segmentHash, and an unchanged window to hash nothing.
func FuzzSegmentHashReuse(f *testing.F) {
	f.Add([]byte{1, 40, 0, 3, 1, 5, 2, 7, 4, 0})
	f.Add([]byte{1, 200, 3, 2, 0, 17, 1, 9, 2, 130, 4, 4})
	f.Add([]byte{1, 90, 3, 0, 2, 33, 2, 34, 0, 1, 4, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		memo := NewMemo(0)
		w := &workload.Workload{Name: "fuzz"}
		size := 4
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%5, int(script[i+1])
			switch op {
			case 0: // head drop
				n := min(arg%16, w.Len())
				w.Statements, w.Labels = w.Statements[n:], w.Labels[n:]
			case 1: // tail append from a small alphabet: texts repeat
				for j := 0; j < arg%32; j++ {
					v := (arg + j*7) % 11
					w.Append(fmt.Sprintf("L%d", (arg+j)/9%3), workload.Statement{SQL: fmt.Sprintf("SELECT a FROM t WHERE a = %d", v)})
				}
			case 2: // in-place replacement, fresh or repeated text
				if w.Len() > 0 {
					w.Statements[arg%w.Len()] = workload.Statement{SQL: fmt.Sprintf("SELECT b FROM t WHERE b = %d", arg%5)}
				}
			case 3: // new segment size: every boundary moves
				size = 1 + arg%6
			}
			segs := w.Segments(size)
			got, hashed := memo.hashes(segs)
			if len(got) != len(segs) || hashed < 0 || hashed > len(segs) {
				t.Fatalf("step %d: %d hashes, %d hashed, for %d segments", i/2, len(got), hashed, len(segs))
			}
			for k, seg := range segs {
				if want := segmentHash(seg); got[k] != want {
					t.Fatalf("step %d: segment %d (statement %d) took hash %x, fresh %x", i/2, k, seg.Start, got[k], want)
				}
			}
			if op == 4 && hashed != 0 {
				t.Fatalf("step %d: an unchanged window hashed %d segments", i/2, hashed)
			}
		}
	})
}

// TestSharedMemoConcurrentAssembly assembles slid windows on one shared
// store from two goroutines at once, so the retained texts are read and
// replaced concurrently: every stage must still resolve the row of its
// own content.
func TestSharedMemoConcurrentAssembly(t *testing.T) {
	_, adv := testAdvisor(t)
	stream := distinctStream(400)
	opts := Options{K: 2, SegmentSize: 5, Memo: NewMemo(0)}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for lo := g * 7; lo+200 <= stream.Len(); lo += 15 {
				p, segs, err := adv.Problem(stream.Slice(lo, lo+200), opts)
				if err != nil {
					t.Error(err)
					return
				}
				for i, r := range p.Model.(*whatIfModel).rows {
					if r.hash != segmentHash(segs[i]) {
						t.Errorf("goroutine %d, window at %d: stage %d resolved the row of another content", g, lo, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
