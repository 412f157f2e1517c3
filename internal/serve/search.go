package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	rca "github.com/climate-rca/rca"
)

// Scenario searches ride the same service discipline as jobs: a
// bounded registry ("s-%06d" ids, oldest terminal entries pruned), a
// semaphore that serializes the heavy exploration instead of letting N
// handler goroutines bypass the worker pool, and ?wait adoption where
// a disconnected waiter cancels its own search. Progress — nodes
// expanded, pruned, incumbent updates — feeds both the /metrics
// counters and the per-search event list clients poll.

// searchEventsCap bounds the retained progress events per search; the
// totals keep counting past it.
const searchEventsCap = 256

// SearchEvent is one retained search progress event (waves and
// incumbent updates; expansions and prunes are counted, not listed).
type SearchEvent struct {
	Kind string    `json:"kind"`
	Wave int       `json:"wave"`
	IDs  []string  `json:"ids,omitempty"`
	Rate float64   `json:"rate,omitempty"`
	By   string    `json:"by,omitempty"`
	At   time.Time `json:"at"`
}

// SearchProgress is the live counter view of a search.
type SearchProgress struct {
	Expanded   int64 `json:"expanded"`
	Pruned     int64 `json:"pruned"`
	Incumbents int64 `json:"incumbents"`
}

// searchJob is one running or finished scenario search.
type searchJob struct {
	id     string
	cancel context.CancelFunc

	mu       sync.Mutex
	state    State
	progress SearchProgress
	events   []SearchEvent
	result   *rca.SearchResult
	text     string
	err      error
	done     chan struct{}
}

func (j *searchJob) isTerminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.terminal()
}

func (j *searchJob) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateQueued {
		j.state = StateRunning
	}
}

func (j *searchJob) finish(state State, res *rca.SearchResult, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	j.state, j.result, j.err = state, res, err
	if res != nil {
		j.text = rca.FormatSearchResult(res)
	}
	close(j.done)
	return true
}

// abort cancels the search (waiter disconnect); the engine returns
// ErrCanceled and the runner goroutine records the terminal state.
func (j *searchJob) abort() { j.cancel() }

// observe folds one engine progress event into the job and the
// server's metrics. The engine emits events sequentially, so this is
// uncontended in practice; the lock protects concurrent renders.
func (s *Server) observe(j *searchJob, ev rca.SearchEvent) {
	switch ev.Kind {
	case "expanded":
		s.m.searchNodesExpanded.Add(1)
	case "pruned":
		s.m.searchNodesPruned.Add(1)
	case "incumbent":
		s.m.searchIncumbentUpdates.Add(1)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch ev.Kind {
	case "expanded":
		j.progress.Expanded++
		return // counted, not retained: waves can expand many nodes
	case "pruned":
		j.progress.Pruned++
		return
	case "incumbent":
		j.progress.Incumbents++
	}
	if len(j.events) < searchEventsCap {
		j.events = append(j.events, SearchEvent{
			Kind: string(ev.Kind), Wave: ev.Wave, IDs: ev.IDs,
			Rate: ev.Rate, By: ev.By, At: time.Now().UTC(),
		})
	}
}

// startSearch registers and launches one search execution.
func (s *Server) startSearch(req *rca.SearchRequest) (*searchJob, error) {
	// The shutdown check and the waitgroup registration share s.mu
	// with Close (see table1Flight for the race this prevents).
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.wg.Add(1)
	s.nextSearchID++
	id := fmt.Sprintf("s-%06d", s.nextSearchID)
	s.mu.Unlock()

	ctx, cancel := context.WithCancel(s.base)
	j := &searchJob{id: id, cancel: cancel, state: StateQueued, done: make(chan struct{})}
	s.registerSearch(j)
	s.m.searchesStarted.Add(1)

	go func() {
		defer s.wg.Done()
		select {
		case s.searchSem <- struct{}{}:
		case <-ctx.Done():
			s.m.searchesCanceled.Add(1)
			j.finish(StateCanceled, nil, rca.ErrCanceled)
			return
		}
		defer func() { <-s.searchSem }()
		j.setRunning()
		opts := req.Options()
		opts.Progress = func(ev rca.SearchEvent) { s.observe(j, ev) }
		res, err := rca.Search(ctx, s.session, opts)
		switch {
		case err == nil:
			s.m.searchesCompleted.Add(1)
			j.finish(StateDone, res, nil)
		case ctx.Err() != nil:
			s.m.searchesCanceled.Add(1)
			j.finish(StateCanceled, nil, rca.ErrCanceled)
		default:
			s.m.searchesFailed.Add(1)
			j.finish(StateFailed, nil, err)
		}
	}()
	return j, nil
}

// registerSearch records a search in the bounded registry.
func (s *Server) registerSearch(j *searchJob) {
	s.smu.Lock()
	defer s.smu.Unlock()
	s.searchOrder = register(s.searches, s.searchOrder, j.id, j, s.jobsCap)
}

// searchByID looks a search up in the registry.
func (s *Server) searchByID(id string) (*searchJob, bool) {
	s.smu.Lock()
	defer s.smu.Unlock()
	j, ok := s.searches[id]
	return j, ok
}

// searchJSON is the wire rendering of a search.
type searchJSON struct {
	ID       string            `json:"id"`
	State    State             `json:"state"`
	Progress SearchProgress    `json:"progress"`
	Events   []SearchEvent     `json:"events,omitempty"`
	Result   *rca.SearchResult `json:"result,omitempty"`
	Text     string            `json:"text,omitempty"`
	Error    string            `json:"error,omitempty"`
}

func renderSearch(j *searchJob) searchJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	events := make([]SearchEvent, len(j.events))
	copy(events, j.events)
	sj := searchJSON{
		ID:       j.id,
		State:    j.state,
		Progress: j.progress,
		Events:   events,
		Result:   j.result,
		Text:     j.text,
	}
	if j.err != nil {
		sj.Error = j.err.Error()
	}
	return sj
}
