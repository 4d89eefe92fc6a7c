package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"

	"dyndesign/internal/alerter"
	"dyndesign/internal/core"
	"dyndesign/internal/workload"
)

// The decode fuzzers feed the readers of on-disk bytes — readFrame
// (every WAL record and snapshot goes through it), decodeRecords (what a
// WAL frame holds) and decodeSnapshot — arbitrary input, as a torn write
// or a flipped bit would. Each must answer with an error or with a value
// that encodes back to bytes it accepts unchanged; none may panic, nor
// allocate from a length field what the input does not hold.

// allocBound is how much a decode of n input bytes may allocate: the
// frame's first step, growth by doubling over what arrives, and JSON
// decoding's several copies of it.
func allocBound(n int) uint64 { return 2*frameAllocStep + 64*uint64(n) }

// allocated runs f and returns the bytes the process allocated meanwhile.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// corruptions seeds a fuzzer with a valid encoding, a truncated one, one
// with a flipped CRC bit, and one whose length field promises the cap.
func corruptions(f *testing.F, valid []byte) {
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := bytes.Clone(valid)
	flipped[5] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 0, 'x'}) // length 64 MiB, one byte of payload
	f.Add([]byte{})
}

// seedBatch is a batch frame's payload as AppendBatch writes it.
const seedBatch = `{"seq":2,"kind":"batch","stmts":[{"label":"A","sql":"SELECT a FROM t WHERE a = 1"},{"sql":"SELECT b FROM t WHERE b < 2"}]}`

func FuzzFrameDecode(f *testing.F) {
	corruptions(f, appendFrame(nil, []byte(`{"seq":1,"kind":"stmt","sql":"SELECT a FROM t WHERE a = 1"}`)))
	corruptions(f, appendFrame(nil, []byte(seedBatch)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var payload []byte
		var err error
		if got := allocated(func() { payload, err = readFrame(bytes.NewReader(data)) }); got > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			if payload != nil || (err != io.EOF && !errors.Is(err, errBadFrame)) {
				t.Fatalf("readFrame: payload %q with error %v", payload, err)
			}
			if (err == io.EOF) != (len(data) == 0) {
				t.Fatalf("readFrame of %d bytes: %v", len(data), err)
			}
			return
		}
		if again := appendFrame(nil, payload); !bytes.HasPrefix(data, again) {
			t.Fatalf("accepted payload %q re-encodes to %x, the input began %x", payload, again, data[:min(len(data), len(again))])
		}
	})
}

// FuzzRecordDecode feeds decodeRecords what a frame with a sound CRC
// could still hold. An accepted payload stands for at least one record,
// sequences consecutive and not wrapping, a batch's all statements — and
// written back the way the store writes them (one frame for a batch, one
// per record otherwise) it decodes to the same records.
func FuzzRecordDecode(f *testing.F) {
	for _, seed := range []string{
		seedBatch,
		`{"seq":1,"kind":"stmt","label":"A","sql":"SELECT a FROM t WHERE a = 1"}`,
		`{"seq":9,"kind":"reset"}`,
		`{"seq":3,"kind":"batch"}`,
		`{"seq":3,"kind":"batch","stmts":[]}`,
		`{"seq":18446744073709551615,"kind":"batch","stmts":[{"sql":"a"},{"sql":"b"}]}`,
		`{"seq":3,"kind":"stmt","stmts":[{"sql":"ignored"}]}`,
		`{"seq":"3"}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		recs, err := decodeRecords(payload)
		if err != nil {
			if recs != nil {
				t.Fatalf("decodeRecords: records %+v with error %v", recs, err)
			}
			return
		}
		if len(recs) == 0 {
			t.Fatal("decodeRecords accepted a payload that stands for no record")
		}
		fr := frameRecord{Record: recs[0]}
		for i, rec := range recs {
			if rec.Seq != recs[0].Seq+uint64(i) || rec.Seq < recs[0].Seq {
				t.Fatalf("record %d of %d has seq %d after first %d", i, len(recs), rec.Seq, recs[0].Seq)
			}
			if len(recs) > 1 {
				if rec.Kind != RecordStatement {
					t.Fatalf("record %d of a batch has kind %q", i, rec.Kind)
				}
				fr.Stmts = append(fr.Stmts, Statement{Label: rec.Label, SQL: rec.SQL})
			}
		}
		if len(recs) > 1 {
			fr.Record = Record{Seq: recs[0].Seq, Kind: recordBatch}
		}
		canon, err := json.Marshal(fr)
		if err != nil {
			t.Fatalf("accepted records do not encode: %v", err)
		}
		if again, err := decodeRecords(canon); err != nil || !slices.Equal(again, recs) {
			t.Fatalf("%s decodes to %+v (err %v), the input to %+v", canon, again, err, recs)
		}
	})
}

// seedSnapshot is a snapshot with every field populated.
func seedSnapshot() *Snapshot {
	return &Snapshot{
		SchemaVersion: SnapshotSchemaVersion,
		Seq:           7,
		Window: workload.WindowState{Name: "live", Cap: 4, Total: 9, Seq: 11,
			Statements: []workload.WindowStatement{{Label: "A", SQL: "SELECT a FROM t WHERE a = 1"}}},
		Installed:        core.ConfigOf(1),
		LastKnownGood:    &core.Solution{Designs: []core.Config{0, 2}, Cost: 3, ExecCost: 2, TransCost: 1, Changes: 1},
		StatsFingerprint: 42,
		Alerter:          &alerter.State{Configs: []core.Config{0, 1}, WindowSize: 2, Ring: [][]float64{{1, 2}}, Sums: []float64{1, 2}},
	}
}

func FuzzSnapshotDecode(f *testing.F) {
	valid, err := encodeSnapshot(seedSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	corruptions(f, valid)
	f.Add(appendFrame(nil, []byte(`{"schema_version":2}`)))
	f.Add(appendFrame(nil, []byte(`{"schema_version":1,"seq":"x"}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var snap *Snapshot
		var err error
		if got := allocated(func() { snap, err = decodeSnapshot(bytes.NewReader(data)) }); got > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if (snap == nil) == (err == nil) {
			t.Fatalf("decodeSnapshot: snapshot %+v with error %v", snap, err)
		}
		if err != nil {
			return
		}
		// JSON has many spellings of one value, so an accepted input need
		// not be canonical; what it decodes to must be.
		canon, err := encodeSnapshot(snap)
		if err != nil {
			t.Fatalf("accepted snapshot does not encode: %v", err)
		}
		again, err := decodeSnapshot(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("re-encoded snapshot is rejected: %v", err)
		}
		if twice, err := encodeSnapshot(again); err != nil || !bytes.Equal(twice, canon) {
			t.Fatalf("snapshot encoding is not stable (err %v):\n%s\n%s", err, canon, twice)
		}
	})
}

// TestSnapshotBytesSurviveDecode pins the canonical case the fuzzer
// starts from: what encodeSnapshot writes decodes to a value that
// encodes to the same bytes.
func TestSnapshotBytesSurviveDecode(t *testing.T) {
	valid, err := encodeSnapshot(seedSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := decodeSnapshot(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	if again, err := encodeSnapshot(snap); err != nil || !bytes.Equal(again, valid) {
		t.Fatalf("snapshot bytes changed across a decode (err %v):\n%s\n%s", err, valid, again)
	}
}
