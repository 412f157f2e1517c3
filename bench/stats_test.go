package main

import "testing"

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending: percentile must sort
	}
	return s
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		q       float64
		refused int // largest sample count refused
	}{{0.9, 99}, {0.75, 39}, {0.5, 19}} {
		if _, err := percentile(seq(c.refused), c.q); err == nil {
			t.Errorf("p%.0f of %d samples: want refusal (fewer than %d beyond)", 100*c.q, c.refused, minBeyond)
		}
		if _, err := percentile(seq(c.refused+1), c.q); err != nil {
			t.Errorf("p%.0f of %d samples: %v", 100*c.q, c.refused+1, err)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	// 1..101: the q-quantile of an evenly spaced sequence is 1+100q.
	for _, q := range []float64{0.5, 0.75, 0.9} {
		got, err := percentile(seq(101), q)
		if err != nil {
			t.Fatal(err)
		}
		if want := 1 + 100*q; got != want {
			t.Errorf("p%.0f = %v, want %v", 100*q, got, want)
		}
	}
	if got := quantile([]float64{1, 2}, 0.25); got != 1.25 {
		t.Errorf("quantile({1,2}, 0.25) = %v, want 1.25", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}
