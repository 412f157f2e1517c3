package serve

import "time"

// Outcome is the service's rendered result record: what GET
// /v1/outcomes/{fingerprint} returns, what completed jobs carry and,
// as the same JSON, what the store's outcome blob holds. Text is the
// rca.FormatOutcome report — the byte-identical artifact the e2e
// golden harness pins against the in-process pipeline.
type Outcome struct {
	Fingerprint string    `json:"fingerprint"`
	Name        string    `json:"name"`
	FailureRate float64   `json:"failureRate"`
	BugLocated  bool      `json:"bugLocated"`
	Text        string    `json:"text"`
	CompletedAt time.Time `json:"completedAt"`
}
