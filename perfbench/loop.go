package main

import (
	"sync"
	"time"
)

// closedLoop runs one client: send back to back until the deadline,
// each request timed from when it was sent. A slow system receives
// less load.
func closedLoop(deadline time.Time, l *lat, send func() bool) {
	for time.Now().Before(deadline) {
		start := time.Now()
		ok := send()
		l.record(time.Since(start), ok)
	}
}

// due is one scheduled request of an open loop.
type due struct {
	at   time.Duration // offset from the loop's start
	kind int
	seq  int64 // request id, unique within the run
}

// openLane sends its requests one at a time, each at its due time
// or, when the lane is still busy with earlier ones, as soon as it is
// free. Latency is timed from the due time, so a stall also charges the
// requests queued behind it; lateness (send − due) goes to late. A
// request still unsent at cutoff is recorded as failed.
func openLane(start time.Time, reqs []due, cutoff time.Time, lats []*lat, late *lat, send func(d due) bool) {
	for _, r := range reqs {
		dueAt := start.Add(r.at)
		if wait := time.Until(dueAt); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		if sent.After(cutoff) {
			lats[r.kind].record(0, false)
			continue
		}
		ok := send(r)
		lats[r.kind].record(time.Since(dueAt), ok)
		late.record(sent.Sub(dueAt), true)
	}
}

// openLoop runs lanes concurrently from one shared start and waits for
// all of them.
func openLoop(start time.Time, lanes [][]due, cutoff time.Time, lats []*lat, late *lat, send []func(d due) bool) {
	var wg sync.WaitGroup
	for i := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			openLane(start, lanes[i], cutoff, lats, late, send[i])
		}()
	}
	wg.Wait()
}
