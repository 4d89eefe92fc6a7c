// Package durable persists the advisor service's state across process
// crashes: a CRC-framed, segment-rotating write-ahead log for the
// ingested statement stream — one frame and one fsync per acknowledged
// ingest batch — plus periodic schema-versioned snapshots of the derived
// state (window ring, installed design, last-known-good solution,
// drift-detector costs). Recovery loads the
// newest valid snapshot and replays the WAL tail, truncating torn
// records at the first bad frame — the standard snapshot + redo-log
// shape, sized for a single-node tuner.
//
// The durability contract is explicit about what is and is not
// persisted: the statement stream and the published design chain are;
// the what-if memo and solve-cache tables are not — they are
// deterministic caches that re-warm from the replayed stream (see
// DESIGN.md §14).
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Frame layout: a 8-byte header (little-endian payload length, then
// CRC-32C of the payload) followed by the payload. The CRC is over the
// payload only; a torn header is detected by the length/CRC check
// failing on whatever bytes follow.
const frameHeaderSize = 8

// maxFramePayload bounds a single frame. WAL records are statements
// (bytes to kilobytes) or whole ingest batches (up to a request body,
// a megabyte by default); snapshots carry a whole window ring and a cost
// ring (up to a few megabytes). Anything larger than this is treated as
// a corrupt length field, not a record, so append refuses to write one.
const maxFramePayload = 64 << 20

// frameAllocStep is how much of a frame's declared length readFrame
// allocates before it has seen the bytes. A WAL record within the default
// body cap fits in one step, so it still takes exactly one allocation.
const frameAllocStep = 1 << 20

// castagnoli is the CRC-32C table (the checksum polynomial used by
// most storage formats; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errBadFrame marks a torn or corrupt frame — the recovery signal to
// truncate, never an error to surface raw.
var errBadFrame = errors.New("durable: bad frame")

// appendFrame appends the framed payload to buf and returns the
// extended slice.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// readFrame reads one frame from r. It returns the payload, or io.EOF
// at a clean end, or errBadFrame for anything torn: a partial header, a
// length beyond the cap, a short payload, or a CRC mismatch.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	n, err := io.ReadFull(r, hdr[:])
	if err == io.EOF && n == 0 {
		return nil, io.EOF
	}
	if err != nil {
		return nil, errBadFrame // partial header: torn tail
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if length > maxFramePayload {
		return nil, errBadFrame
	}
	// The length is untrusted until the CRC holds: beyond the first
	// frameAllocStep bytes the buffer grows only as bytes arrive, so a
	// corrupt length field costs no more memory than the file holds.
	payload := make([]byte, 0, min(length, frameAllocStep))
	for uint32(len(payload)) < length {
		n := int(min(length-uint32(len(payload)), frameAllocStep))
		payload = slices.Grow(payload, n)[:len(payload)+n]
		if _, err := io.ReadFull(r, payload[len(payload)-n:]); err != nil {
			return nil, errBadFrame // short payload: torn tail
		}
	}
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, errBadFrame
	}
	return payload, nil
}

// frameSize is the on-disk size of a frame holding n payload bytes.
func frameSize(n int) int64 { return int64(frameHeaderSize + n) }

// corruptionError wraps recovery failures that indicate real corruption
// (as opposed to a torn tail, which recovery repairs silently).
func corruptionError(format string, args ...any) error {
	return fmt.Errorf("durable: "+format, args...)
}
