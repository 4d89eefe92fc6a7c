package storage

import "sync/atomic"

// AccessStats counts logical page accesses. One counter instance is
// shared by a database's heap files and index trees, so a workload run
// yields a single, deterministic cost figure.
//
// Counters are atomic so concurrent readers may share a database. A full
// scan counts the pages it visited and adds them once, when it ends.
type AccessStats struct {
	reads  atomic.Int64
	writes atomic.Int64
}

// Read records n logical page reads.
func (s *AccessStats) Read(n int64) {
	if s != nil {
		s.reads.Add(n)
	}
}

// Write records n logical page writes.
func (s *AccessStats) Write(n int64) {
	if s != nil {
		s.writes.Add(n)
	}
}

// Reads returns the number of logical page reads recorded so far.
func (s *AccessStats) Reads() int64 {
	if s == nil {
		return 0
	}
	return s.reads.Load()
}

// Writes returns the number of logical page writes recorded so far.
func (s *AccessStats) Writes() int64 {
	if s == nil {
		return 0
	}
	return s.writes.Load()
}

// Total returns reads + writes: the total logical page accesses.
func (s *AccessStats) Total() int64 { return s.Reads() + s.Writes() }

// Reset zeroes both counters.
func (s *AccessStats) Reset() {
	if s == nil {
		return
	}
	s.reads.Store(0)
	s.writes.Store(0)
}

// Snapshot captures the current counter values.
func (s *AccessStats) Snapshot() AccessSnapshot {
	return AccessSnapshot{Reads: s.Reads(), Writes: s.Writes()}
}

// AccessSnapshot is a point-in-time copy of an AccessStats.
type AccessSnapshot struct {
	Reads  int64
	Writes int64
}

// Total returns reads + writes for the snapshot.
func (s AccessSnapshot) Total() int64 { return s.Reads + s.Writes }

// Sub returns the per-counter difference s - earlier, i.e. the accesses
// that happened between the two snapshots.
func (s AccessSnapshot) Sub(earlier AccessSnapshot) AccessSnapshot {
	return AccessSnapshot{Reads: s.Reads - earlier.Reads, Writes: s.Writes - earlier.Writes}
}
