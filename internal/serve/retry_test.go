package serve

import (
	"testing"
	"time"

	rca "github.com/climate-rca/rca"
)

// TestRetryDelayHonorsConfiguredCap: a flight's retry delay follows the
// configured RetryBase and caps at DefaultBackoffMax (modulo the
// sub-base jitter), and a zero-value config uses DefaultRetryBase.
func TestRetryDelayHonorsConfiguredCap(t *testing.T) {
	session := rca.NewSession(rca.CorpusConfig{AuxModules: 5, Seed: 1})
	base := 50 * time.Millisecond
	srv := New(Config{Session: session, RetryBase: base})
	defer srv.Close()

	for attempt := 1; attempt <= 12; attempt++ {
		d := srv.retryDelay("fp", attempt)
		if want := backoff("fp", attempt, base); d != want {
			t.Fatalf("attempt %d: retryDelay = %v, backoff = %v", attempt, d, want)
		}
		if d >= DefaultBackoffMax+base {
			t.Fatalf("attempt %d: delay %v exceeds the cap %v (+jitter)", attempt, d, DefaultBackoffMax)
		}
	}
	if d := srv.retryDelay("fp", 30); d < DefaultBackoffMax || d >= DefaultBackoffMax+base {
		t.Fatalf("attempt 30: delay %v outside [%v, %v)", d, DefaultBackoffMax, DefaultBackoffMax+base)
	}

	srv2 := New(Config{Session: session})
	defer srv2.Close()
	if d := srv2.retryDelay("fp", 1); d < DefaultRetryBase || d >= 2*DefaultRetryBase {
		t.Fatalf("default base: attempt 1 delay %v outside [%v, %v)", d, DefaultRetryBase, 2*DefaultRetryBase)
	}
}

// TestBackoffHelperDefaults pins the schedule's contract: the delay
// doubles per attempt from base, the DefaultBackoffMax cap binds, and
// the jitter is a deterministic pure function of (key, attempt).
func TestBackoffHelperDefaults(t *testing.T) {
	base := DefaultRetryBase
	jitterless := func(attempt int) time.Duration {
		d := backoff("job-x", attempt, base)
		return d - d%base // the jitter is always below base
	}
	prev := jitterless(1)
	if prev != base {
		t.Fatalf("attempt 1 backoff = %v, want %v", prev, base)
	}
	for attempt := 2; attempt <= 7; attempt++ {
		d := jitterless(attempt)
		if d != 2*prev {
			t.Fatalf("attempt %d backoff = %v, want %v (exponential growth)", attempt, d, 2*prev)
		}
		prev = d
	}
	if d := jitterless(40); d != DefaultBackoffMax {
		t.Fatalf("attempt 40 backoff = %v, want capped %v", d, DefaultBackoffMax)
	}

	small := 100 * time.Millisecond
	if d := backoff("id", 10, small); d < DefaultBackoffMax || d >= DefaultBackoffMax+small {
		t.Fatalf("capped delay %v outside [%v, %v)", d, DefaultBackoffMax, DefaultBackoffMax+small)
	}
	if backoff("id", 5, small) != backoff("id", 5, small) {
		t.Fatal("jitter is not deterministic")
	}
	if backoff("a", 5, small) == backoff("b", 5, small) {
		t.Fatal("jitter ignores the key")
	}
}
