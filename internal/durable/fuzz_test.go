package durable

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"dyndesign/internal/alerter"
	"dyndesign/internal/core"
	"dyndesign/internal/workload"
)

// The decode fuzzers feed the two readers of on-disk bytes — readFrame
// (every WAL record and snapshot goes through it) and decodeSnapshot —
// arbitrary input, as a torn write or a flipped bit would. Either must
// answer with an error or with a value that encodes back to bytes it
// accepts unchanged; neither may panic, nor allocate from a length field
// what the input does not hold.

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

func FuzzFrameDecode(f *testing.F) {
	corruptions(f, appendFrame(nil, []byte(`{"seq":1,"kind":"stmt","sql":"SELECT a FROM t WHERE a = 1"}`)))
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
