package rca

import (
	"context"
	"strings"
	"testing"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	session := NewSession(CorpusConfig{AuxModules: 30, Seed: 2},
		WithEnsembleSize(30), WithExpSize(6))
	out, err := session.Run(context.Background(), WSUBBUG)
	if err != nil {
		t.Fatal(err)
	}
	if !out.BugLocated {
		t.Fatal("WSUBBUG not located through public API")
	}
	report := FormatOutcome(out)
	for _, want := range []string{"WSUBBUG", "UF-ECT failure", "induced subgraph",
		"bug located", "iteration 1"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

func TestExperimentsList(t *testing.T) {
	specs := Experiments()
	if len(specs) != 6 {
		t.Fatalf("experiments = %d", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		names[s.Name()] = true
	}
	for _, want := range []string{"WSUBBUG", "RAND-MT", "GOFFGRATCH", "AVX2",
		"RANDOMBUG", "DYN3BUG"} {
		if !names[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
}

func TestCorpusConfigs(t *testing.T) {
	d := DefaultCorpus()
	p := PaperScaleCorpus()
	if d.AuxModules <= 0 || p.AuxModules <= d.AuxModules {
		t.Fatalf("corpus configs: default=%d paper=%d", d.AuxModules, p.AuxModules)
	}
}

func TestFormatTable1(t *testing.T) {
	rows := []Table1Row{
		{Config: "AVX2 enabled, all modules", FailureRate: 0.92},
		{Config: "AVX2 disabled, all modules", FailureRate: 0.02},
	}
	s := FormatTable1(rows)
	if !strings.Contains(s, "92%") || !strings.Contains(s, "2%") {
		t.Fatalf("table formatting:\n%s", s)
	}
}
