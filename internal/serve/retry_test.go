package serve

import (
	"testing"
	"time"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/artifact"
)

// TestRetryDelayHonorsConfiguredCap is the regression test for the
// duplicated backoff helper: retryDelay used to hardcode a 30s cap, so
// a server configured with a different RetryMax silently kept the old
// ceiling. The delay must now cap at the configured maximum (modulo
// the sub-base jitter), via the same artifact.Backoff schedule the
// work queue uses.
func TestRetryDelayHonorsConfiguredCap(t *testing.T) {
	session := rca.NewSession(rca.CorpusConfig{AuxModules: 5, Seed: 1})
	base := 50 * time.Millisecond
	max := 400 * time.Millisecond
	srv := New(Config{Session: session, RetryBase: base, RetryMax: max})
	defer srv.Close()

	for attempt := 1; attempt <= 12; attempt++ {
		d := srv.retryDelay("fp", attempt)
		want := artifact.Backoff("fp", attempt, base, max)
		if d != want {
			t.Fatalf("attempt %d: retryDelay = %v, artifact.Backoff = %v", attempt, d, want)
		}
		if d >= max+base {
			t.Fatalf("attempt %d: delay %v exceeds configured cap %v (+jitter)", attempt, d, max)
		}
	}
	// Deep attempts must sit exactly at the configured cap plus jitter,
	// not at the old hardcoded 30s.
	if d := srv.retryDelay("fp", 30); d < max || d >= max+base {
		t.Fatalf("attempt 30: delay %v outside [%v, %v)", d, max, max+base)
	}

	// Defaults: a zero-value config still doubles toward the shared
	// default cap.
	srv2 := New(Config{Session: session})
	defer srv2.Close()
	if d := srv2.retryDelay("fp", 30); d < artifact.DefaultBackoffMax {
		t.Fatalf("default cap: attempt 30 delay %v below %v", d, artifact.DefaultBackoffMax)
	}

	// Worker mode: the shared queue on a disk-backed store follows the
	// same policy, so its backoff caps at the configured max too.
	store, err := rca.OpenArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv3 := New(Config{Session: session, Artifacts: store, RetryBase: base, RetryMax: max})
	defer srv3.Close()
	q, err := srv3.jobQueue()
	if err != nil {
		t.Fatal(err)
	}
	if q.BackoffBase != base || q.BackoffMax != max {
		t.Fatalf("queue backoff base/max = %v/%v, want %v/%v", q.BackoffBase, q.BackoffMax, base, max)
	}
	if d := artifact.Backoff("fp", 30, q.BackoffBase, q.BackoffMax); d < max || d >= max+base {
		t.Fatalf("queue attempt 30: delay %v outside [%v, %v)", d, max, max+base)
	}
}
