package main

import (
	"context"
	"fmt"
	"os"

	"dyndesign/internal/advisor"
)

// calibJob is one published recommendation waiting for its replay.
type calibJob struct {
	rec *advisor.Recommendation
	id  uint64
}

// startCalibrator starts the calibration goroutine: the only code in the
// service that touches engine.Database after start-up (solves read the
// table's size from its heap counters, never the database lock), so at
// most one replay is ever in flight and a solve never waits for one.
// close stops it.
func (s *service) startCalibrator() {
	ctx, cancel := context.WithCancel(context.Background())
	s.calibCh = make(chan calibJob, 1)
	s.calibCancel = cancel
	s.calibDone = make(chan struct{})
	go func() {
		defer close(s.calibDone)
		for {
			select {
			case <-ctx.Done():
				return
			case job := <-s.calibCh:
				s.calibrate(ctx, job)
			}
		}
	}()
}

// submitCalibration hands a freshly published recommendation to the
// calibrator through its one-slot mailbox, latest wins: a job still
// waiting there is replaced and counted as superseded, the replay in
// flight is left alone, so calibration makes progress however fast the
// solves come. Only the solver goroutine may call it — with a single
// sender the final send finds the slot empty and cannot block.
func (s *service) submitCalibration(job calibJob) {
	select {
	case s.calibCh <- job:
		return
	default:
	}
	select {
	case <-s.calibCh:
		s.calibSuperseded.Add(1)
	default: // the calibrator took the waiting job in between
	}
	s.calibCh <- job
}

// calibrate replays one published recommendation and amends its lineage
// record with the outcome. A replay cut short by shutdown is not a
// calibration failure.
func (s *service) calibrate(ctx context.Context, job calibJob) {
	if s.calibHook != nil {
		s.calibHook(job.id)
	}
	// Vary the sampling by solve id (deterministically) so consecutive
	// solves over a slow-moving window don't measure the same statements
	// — the drift trend needs fresh draws.
	rep, err := s.adv.CalibrateContext(ctx, job.rec, advisor.CalibrateOptions{
		Samples: s.cfg.CalibSamples,
		Seed:    s.cfg.CalibSeed + int64(job.id),
		Monitor: s.calibMon,
	})
	switch {
	case err == nil:
		s.lineage.amend(job.id, summarizeCalibration(rep))
	case ctx.Err() != nil: // cut short by shutdown
	default:
		s.calibErrors.Add(1)
		fmt.Fprintf(os.Stderr, "advisord: calibration after solve %d failed: %v\n", job.id, err)
	}
}
