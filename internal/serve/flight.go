package serve

import (
	"context"
	"sync"

	rca "github.com/climate-rca/rca"
)

// flight is one deduplicated pipeline execution: every job submitting
// a scenario with the same scenario fingerprint while the flight is
// queued or running subscribes to it instead of enqueueing a second
// execution (singleflight over the PR-2 layered cache keys). The
// flight's context is derived from the server's base context and is
// canceled only when the last subscriber cancels, so shared work
// survives any individual client's disconnect.
type flight struct {
	key      string // scenario fingerprint hash
	scenario rca.Scenario
	ctx      context.Context
	cancel   context.CancelFunc

	// executions counts the pipeline executions runFlight attempted.
	// It is written before finishFlight finishes the subscribers, so a
	// job that finishFlight failed reads it after <-done without a lock.
	executions int

	mu       sync.Mutex
	jobs     []*job
	started  bool
	finished bool
	stage    rca.Stage
}

func newFlight(base context.Context, key string, sc rca.Scenario) *flight {
	ctx, cancel := context.WithCancel(base)
	return &flight{key: key, scenario: sc, ctx: ctx, cancel: cancel}
}

// subscribe attaches a job, refusing a flight that is already dead —
// the last-subscriber cancel happens under f.mu, so this check closes
// the race between submit's dead-flight test and a concurrent cancel.
// A job joining a flight that already started is moved straight to
// running and told the current stage.
func (f *flight) subscribe(j *job) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ctx.Err() != nil {
		return false
	}
	f.jobs = append(f.jobs, j)
	if f.started {
		j.setRunning()
		if f.stage != "" {
			j.setStage(f.stage)
		}
	}
	return true
}

// unsubscribe detaches a canceled job; the last job out cancels the
// flight's context, aborting the (now unshared) pipeline work.
func (f *flight) unsubscribe(j *job) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, sub := range f.jobs {
		if sub == j {
			f.jobs = append(f.jobs[:i], f.jobs[i+1:]...)
			break
		}
	}
	if len(f.jobs) == 0 && !f.finished {
		f.cancel()
	}
}

// start marks the flight running and moves every subscriber with it.
func (f *flight) start() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.started = true
	for _, j := range f.jobs {
		j.setRunning()
	}
}

// setStage fans a pipeline stage transition out to every subscriber.
func (f *flight) setStage(st rca.Stage) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stage = st
	for _, j := range f.jobs {
		j.setStage(st)
	}
}

// take marks the flight finished and returns the remaining
// subscribers for completion. The context is canceled to release any
// resources tied to it (nothing is running anymore).
func (f *flight) take() []*job {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.finished = true
	jobs := f.jobs
	f.jobs = nil
	f.cancel()
	return jobs
}
