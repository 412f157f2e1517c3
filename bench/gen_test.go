package main

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	rca "github.com/climate-rca/rca"
)

func poolIDs(pool []rca.Injection) []string {
	ids := make([]string, len(pool))
	for i, inj := range pool {
		ids[i] = inj.ID()
	}
	return ids
}

func TestSearchPoolSeededUniqueInRange(t *testing.T) {
	for i := 0; i < 50; i++ {
		ids := poolIDs(searchPool(7, i))
		if again := poolIDs(searchPool(7, i)); !reflect.DeepEqual(ids, again) {
			t.Fatalf("op %d: pool differs between draws with one seed", i)
		}
		if len(ids) != poolSize {
			t.Fatalf("op %d: %d candidates, want %d", i, len(ids), poolSize)
		}
		seen := map[string]bool{}
		for _, inj := range searchPool(7, i) {
			s := inj.(rca.ScaleAssignment)
			if seen[inj.ID()] {
				t.Errorf("op %d: duplicate pool ID %s", i, inj.ID())
			}
			seen[inj.ID()] = true
			if s.Factor < 1.00001 || s.Factor > 1+maxScaleStep*1e-5+1e-12 {
				t.Errorf("op %d: factor %v outside 1+[1,%d]e-5", i, s.Factor, maxScaleStep)
			}
		}
	}
	if reflect.DeepEqual(poolIDs(searchPool(7, 0)), poolIDs(searchPool(8, 0))) {
		t.Error("seeds 7 and 8 draw the same first pool")
	}
}

func TestServiceJobsSeededRepeatsAndParamsInRange(t *testing.T) {
	const n = 1000
	a, b := &serviceGen{seed: 3}, &serviceGen{seed: 3}
	defaults := map[string]float64{}
	for _, p := range serviceParams {
		defaults[p.name] = p.def
	}
	catalog := map[string]bool{}
	for _, sc := range rca.Experiments() {
		catalog[sc.Name()] = true
	}
	firstAt := map[string]int{}
	repeats := 0
	picked := map[string]float64{}
	for i := 0; i < n; i++ {
		j := a.job(i)
		if k := b.job(i); k.name != j.name || string(k.body) != string(j.body) {
			t.Fatalf("job %d differs between generators with one seed", i)
		}
		if _, err := rca.ScenarioFromJSON(j.body); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		first, seen := firstAt[j.name]
		switch {
		case catalog[j.name]:
			repeats++
		case seen:
			repeats++
			if roundStart := i - i%serviceRound; first >= roundStart {
				t.Errorf("job %d repeats job %d of its own round (from %d), which may still be running", i, first, roundStart)
			}
		default:
			firstAt[j.name] = i
			var body struct{ Inject []string }
			if err := json.Unmarshal(j.body, &body); err != nil || len(body.Inject) != 1 {
				t.Fatalf("job %d: body %s", i, j.body)
			}
			name, val, _ := strings.Cut(strings.TrimPrefix(body.Inject[0], "param:"), "=")
			v, err := strconv.ParseFloat(val, 64)
			def, ok := defaults[name]
			if err != nil || !ok || v < 0.5*def || v > 1.5*def {
				t.Errorf("job %d: %s outside default×[0.5,1.5]", i, body.Inject[0])
			}
			picked[name]++
		}
	}
	if frac := float64(repeats) / n; math.Abs(frac-repeatFrac) > 0.05 {
		t.Errorf("repeat share %.3f, want about %.2f", frac, repeatFrac)
	}
	want := 1 / float64(len(serviceParams))
	for _, p := range serviceParams {
		if share := picked[p.name] / float64(len(firstAt)); math.Abs(share-want) > 0.06 {
			t.Errorf("%s perturbed in %.3f of fresh jobs, want about %.2f", p.name, share, want)
		}
	}
}
