package advisor

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"dyndesign/internal/core"
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

// TestReplacedStatementGetsItsOwnRow pins the in-place edit: in a window
// whose statement at a retained position was replaced by new text, that
// statement's segment resolves a row of its own while every other stage
// keeps the row it had.
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
	for i, r := range p2.Model.(*whatIfModel).rows {
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
// one-statement and three-statement segments. Every stage resolves the
// row of its segmentHash, and two stages share one row exactly when
// their texts are equal.
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
					if slices.EqualFunc(segs[i].Statements, segs[j].Statements, sameText) != (m.rows[i] == m.rows[j]) {
						t.Fatalf("segment size %d, window at %d: stages %d and %d share rows unlike their contents", seg, lo, j, i)
					}
				}
			}
		}
	}
}

func sameText(a, b workload.Statement) bool { return a.SQL == b.SQL }

// FuzzSegmentHashReuse runs random edit scripts — head drops, tail
// appends, in-place replacements, segment-size changes, repeated texts
// and label changes — against one store, with statements built both by
// parsing and as literals. A literal's TextHash must equal the parsed
// statement's, and across every step two stages must resolve one row
// exactly when their segments' texts are equal; an unchanged window
// resolves the rows it had.
//
// The texts come from an alphabet of sixteen, so an input parses each
// text once, and the oracle numbers the texts and keys a segment by its
// text numbers: the same equality as the texts', without joining a
// segment's texts at every step.
func FuzzSegmentHashReuse(f *testing.F) {
	f.Add([]byte{1, 40, 0, 3, 1, 5, 2, 7, 4, 0})
	f.Add([]byte{1, 200, 3, 2, 0, 17, 1, 9, 2, 130, 4, 4})
	f.Add([]byte{1, 90, 3, 0, 2, 33, 2, 34, 0, 1, 4, 1})
	var texts, labels []string
	for v := range 11 {
		texts = append(texts, fmt.Sprintf("SELECT a FROM t WHERE a = %d", v))
	}
	for v := range 5 {
		texts = append(texts, fmt.Sprintf("SELECT b FROM t WHERE b = %d", v))
	}
	for l := range 3 {
		labels = append(labels, fmt.Sprintf("L%d", l))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		memo := NewMemo(0)
		configs := []core.Config{0}
		w := &workload.Workload{Name: "fuzz"}
		// ids[i] numbers the text of w.Statements[i] (its index in texts).
		var ids []byte
		// Odd arguments parse their texts, even ones build literals.
		parsed := make([]*workload.Statement, len(texts))
		stmt := func(arg, text int) workload.Statement {
			lit := workload.Statement{SQL: texts[text]}
			if arg%2 == 0 {
				return lit
			}
			if parsed[text] == nil {
				s := workload.MustStatement(texts[text])
				if s.TextHash() != lit.TextHash() {
					t.Fatalf("%q: parsed TextHash %x, literal %x", texts[text], s.TextHash(), lit.TextHash())
				}
				parsed[text] = &s
			}
			return *parsed[text]
		}
		rowOf := map[string]*execRow{}
		textsOf := map[*execRow]string{}
		var prev []*execRow
		size := 4
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%5, int(script[i+1])
			switch op {
			case 0: // head drop
				n := min(arg%16, w.Len())
				w.Statements, w.Labels, ids = w.Statements[n:], w.Labels[n:], ids[n:]
			case 1: // tail append from a small alphabet: texts repeat
				for j := 0; j < arg%32; j++ {
					v := (arg + j*7) % 11
					w.Append(labels[(arg+j)/9%3], stmt(arg+j, v))
					ids = append(ids, byte(v))
				}
			case 2: // in-place replacement, fresh or repeated text
				if w.Len() > 0 {
					v := 11 + arg%5
					w.Statements[arg%w.Len()] = stmt(arg/5, v)
					ids[arg%w.Len()] = byte(v)
				}
			case 3: // new segment size: every boundary moves
				size = 1 + arg%6
			}
			segs := w.Segments(size)
			_, rows, fresh := memo.attach(0, configs, segmentKeys(segs))
			if created := !slices.ContainsFunc(rows, func(r *execRow) bool { return textsOf[r] != "" }); fresh != created {
				t.Fatalf("step %d: attach reports fresh %v, but it created every row: %v", i/2, fresh, created)
			}
			for k, seg := range segs {
				key := ids[seg.Start : seg.Start+len(seg.Statements)]
				r, seen := rowOf[string(key)]
				if seen && r != rows[k] {
					t.Fatalf("step %d: segment %d (statement %d) resolved another row than its equal texts did", i/2, k, seg.Start)
				}
				other, taken := textsOf[rows[k]]
				if taken && other != string(key) {
					t.Fatalf("step %d: segment %d (statement %d) resolved the row of other texts", i/2, k, seg.Start)
				}
				if !seen || !taken {
					rowOf[string(key)], textsOf[rows[k]] = rows[k], string(key)
				}
			}
			if op == 4 && !slices.Equal(rows, prev) {
				t.Fatalf("step %d: an unchanged window resolved other rows", i/2)
			}
			prev = rows
		}
	})
}

// TestSharedMemoConcurrentAssembly assembles slid windows on one shared
// store from two goroutines at once, so rows are resolved and created
// concurrently: every stage must still resolve the row of its own
// content.
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
				keys := segmentKeys(segs)
				for i, r := range p.Model.(*whatIfModel).rows {
					if r.hash != keys[i] {
						t.Errorf("goroutine %d, window at %d: stage %d resolved the row of another content", g, lo, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSegmentKeysMatchSegmentHash holds segmentKeys, which folds four
// segments side by side, to segmentHash per segment, bit for bit: over
// windows of 0 to 4 segments and longer ones, segment sizes that leave
// a final partial segment, label cuts that make neighbouring segments
// of unequal length, and statements built by parsing and as literals.
func TestSegmentKeysMatchSegmentHash(t *testing.T) {
	w := &workload.Workload{Name: "keys"}
	labels := []string{"A", "B", "LOAD"}
	for i := range 97 {
		text := fmt.Sprintf("SELECT a FROM t WHERE a = %d", i%13)
		s := workload.Statement{SQL: text}
		if i%3 != 0 {
			s = workload.MustStatement(text)
		}
		w.Append(labels[i/7%3], s)
	}
	for n := 0; n <= w.Len(); n++ {
		for _, size := range []int{1, 2, 3, 4, 5, 7, 50} {
			segs := w.Slice(0, n).Segments(size)
			keys := segmentKeys(segs)
			if len(keys) != len(segs) {
				t.Fatalf("%d statements, size %d: %d keys for %d segments", n, size, len(keys), len(segs))
			}
			for i, seg := range segs {
				if keys[i] != segmentHash(seg) {
					t.Fatalf("%d statements, size %d: segment %d (statement %d, %d long) keyed %x, segmentHash %x",
						n, size, i, seg.Start, len(seg.Statements), keys[i], segmentHash(seg))
				}
			}
		}
	}
}
