package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// p90 needs 100 samples, p75 40 and p50 20.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of samples, refusing a
// quantile with fewer than minBeyond samples beyond it.
func percentile(samples []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile: q=%v outside (0,1)", q)
	}
	if float64(len(samples))*(1-q)+1e-9 < minBeyond {
		return 0, fmt.Errorf("p%.0f needs %d samples beyond it; %d samples give %.1f",
			100*q, minBeyond, len(samples), float64(len(samples))*(1-q))
	}
	return quantile(samples, q), nil
}

// quantile is the q-quantile of samples by linear interpolation between
// closest ranks, without percentile's sample-count check. It returns 0
// for no samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// summary describes one latency distribution in the raw JSON output.
type summary struct {
	N   int     `json:"n"`
	Min float64 `json:"min"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
	Max float64 `json:"max"`
}

func summarize(samples []float64) summary {
	return summary{
		N:   len(samples),
		Min: quantile(samples, 0),
		P25: quantile(samples, 0.25),
		P50: quantile(samples, 0.5),
		P75: quantile(samples, 0.75),
		Max: quantile(samples, 1),
	}
}
