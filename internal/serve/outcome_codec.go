package serve

import (
	"fmt"
	"time"

	"github.com/climate-rca/rca/internal/binenc"
)

// Outcome is the service's rendered result record: what GET
// /v1/outcomes/{fingerprint} returns and what completed jobs carry.
// Text is the rca.FormatOutcome report — the byte-identical artifact
// the e2e golden harness pins against the in-process pipeline.
type Outcome struct {
	Fingerprint string    `json:"fingerprint"`
	Name        string    `json:"name"`
	FailureRate float64   `json:"failureRate"`
	BugLocated  bool      `json:"bugLocated"`
	Text        string    `json:"text"`
	CompletedAt time.Time `json:"completedAt"`
}

// outcomeCodecVersion is bumped on any change to the encoding below;
// stale blobs then read as misses and the investigation re-runs.
const outcomeCodecVersion uint32 = 1

// encodeOutcome serializes an outcome record to the deterministic
// artifact format. Text carries the rca.FormatOutcome bytes verbatim,
// so an outcome served from disk is byte-identical to the in-process
// render.
func encodeOutcome(o *Outcome) ([]byte, error) {
	if o == nil {
		return nil, fmt.Errorf("serve: encode nil outcome")
	}
	w := binenc.NewWriter(len(o.Text) + 128)
	w.U32(outcomeCodecVersion)
	w.String(o.Fingerprint)
	w.String(o.Name)
	w.F64(o.FailureRate)
	w.Bool(o.BugLocated)
	w.String(o.Text)
	w.I64(o.CompletedAt.UnixNano())
	return w.Bytes(), nil
}

// decodeOutcome reconstructs an outcome from encodeOutcome bytes.
func decodeOutcome(data []byte) (*Outcome, error) {
	r := binenc.NewReader(data)
	if v := r.U32(); v != outcomeCodecVersion {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("serve: outcome codec version %d, want %d", v, outcomeCodecVersion)
	}
	o := &Outcome{
		Fingerprint: r.String(),
		Name:        r.String(),
		FailureRate: r.F64(),
		BugLocated:  r.Bool(),
		Text:        r.String(),
	}
	o.CompletedAt = time.Unix(0, r.I64()).UTC()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return o, nil
}
