package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// smoke test checks the emitted metrics against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload in-process for two ops, untraced and
// traced, and checks that each run is correct and emits exactly the
// metrics BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	ctx := context.Background()
	for i, w := range workloads {
		if i < len(bf.Workloads) && bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s here", i, bf.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			cfg := config{seed: 1, measure: time.Millisecond, trace: trace, minOps: 2, loose: true}
			raw, err := measure(ctx, w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			res := raw.Result
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: result line: %v", w.name, trace, err)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
			if w.name == "catalog" && trace {
				// The stages plus wait account for the traced op's wall time.
				if f := res.Metrics["experiments.attributed_frac"].Value; f < 0.9 || f > 1 {
					t.Errorf("catalog stage attribution covers %.3f of op wall time, want [0.9, 1]", f)
				}
			}
			if w.name == "catalog" && !trace {
				corruptedDigestFails(t, raw.Ops)
			}
		}
	}
}

// corruptedDigestFails re-checks a correct catalog run against a
// committed digest with one flipped character: every op must fail.
func corruptedDigestFails(t *testing.T, ops []opRecord) {
	t.Helper()
	committed, err := loadDigests("catalog", 1)
	if err != nil || committed[0] == "" {
		t.Fatalf("catalog seed 1 digest: %v", err)
	}
	bad := []byte(committed[0])
	bad[0] ^= 1
	recs := append([]opRecord(nil), ops...)
	h := &harness{
		refKey: func(int) int { return 0 },
		reference: func(context.Context, int) (string, error) {
			t.Fatal("every op has a committed digest; no reference should run")
			return "", nil
		},
	}
	checked, err := verify(context.Background(), h, recs, map[int]string{0: string(bad)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if checked != len(recs) {
		t.Errorf("checked %d of %d ops", checked, len(recs))
	}
	for _, r := range recs {
		if r.Err == "" {
			t.Errorf("op %d passed against a corrupted digest", r.Index)
		}
	}
}
