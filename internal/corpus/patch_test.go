package corpus

import (
	"errors"
	"strings"
	"testing"
)

// catalogPatches are the prewired catalog's source defects, labeled by
// experiment name, with the file each edits and its fixed fingerprint.
var catalogPatches = []struct {
	name  string
	patch ReplaceInAssign
	file  string
	id    string
}{
	{"WSUBBUG", WsubPatch, "microp_aero.F90", "patch:microp_aero/aero_run.wsub:0.20=>2.00"},
	{"GOFFGRATCH", GoffGratchPatch, "wv_saturation.F90", "patch:wv_saturation/goffgratch_svp.e2:8.1328e-3=>8.1828e-3"},
	{"DYN3BUG", Dyn3Patch, "dyn3.F90", "patch:dyn3/dyn3_hydro.pint:pref * 0.5=>pref * 0.505"},
	{"RANDOMBUG", RandomIdxPatch, "dyn3.F90", "patch:dyn3/dyn3_hydro.omg_tmp:shift(state%u, 1)=>shift(state%u, 2)"},
	{"LANDBUG", LandPatch, "lnd_snow.F90", "patch:lnd_snow/lnd_run.snowhland:snowhland * 0.98=>snowhland * 0.90"},
}

// TestBugPatchEquivalence pins every catalog patch to the exact edit the
// paper's defect makes: its fingerprint is fixed (scenario cache keys,
// artifact addresses and outcome bytes derive from it), and applying
// it to the clean corpus changes exactly one line of one file, turning
// Old into New, without mutating the input corpus.
func TestBugPatchEquivalence(t *testing.T) {
	cfg := Config{AuxModules: 20, Seed: 3}
	clean := Generate(cfg)
	for _, tc := range catalogPatches {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.patch.ID(); got != tc.id {
				t.Fatalf("ID = %q, want %q", got, tc.id)
			}
			patched, err := Apply(clean, tc.patch)
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range clean.Files {
				got := patched.Files[i].Source
				if f.Name != tc.file {
					if got != f.Source {
						t.Fatalf("file %s changed", f.Name)
					}
					continue
				}
				before, after := strings.Split(f.Source, "\n"), strings.Split(got, "\n")
				if len(before) != len(after) {
					t.Fatalf("%s: line count %d -> %d", f.Name, len(before), len(after))
				}
				var changed []int
				for l := range before {
					if before[l] != after[l] {
						changed = append(changed, l)
					}
				}
				if len(changed) != 1 {
					t.Fatalf("%s: %d lines changed, want 1", f.Name, len(changed))
				}
				l := changed[0]
				if strings.Replace(before[l], tc.patch.Old, tc.patch.New, 1) != after[l] {
					t.Fatalf("%s: edit %q -> %q is not %q=>%q", f.Name, before[l], after[l], tc.patch.Old, tc.patch.New)
				}
			}
			// The clean corpus was not mutated.
			if clean.Fingerprint() != Generate(cfg).Fingerprint() {
				t.Fatal("Apply mutated its input corpus")
			}
		})
	}
}

func TestApplyUnknownTargets(t *testing.T) {
	c := Generate(Config{AuxModules: 5, Seed: 1})
	cases := []Patch{
		ReplaceInAssign{Subprogram: "no_such_sub", Var: "x", Old: "1", New: "2"},
		ReplaceInAssign{Module: "no_such_mod", Subprogram: "aero_run", Var: "wsub", Old: "0.20", New: "2.00"},
		ReplaceInAssign{Subprogram: "aero_run", Var: "no_such_var", Old: "0.20", New: "2.00"},
		ScaleAssign{Subprogram: "aero_run", Var: "wsub", Occurrence: 3, Factor: 2},
	}
	for _, p := range cases {
		if _, err := Apply(c, p); !errors.Is(err, ErrUnknownSubprogram) {
			t.Errorf("%s: err = %v, want ErrUnknownSubprogram", p.ID(), err)
		}
	}
	// Old text absent from the located assignment is a bad patch, not
	// an unknown target.
	if _, err := Apply(c, ReplaceInAssign{Subprogram: "aero_run", Var: "wsub",
		Old: "9.99", New: "1.0"}); !errors.Is(err, ErrBadPatch) {
		t.Errorf("absent old text: err = %v, want ErrBadPatch", err)
	}
}

func TestScaleAssignRewritesAndParses(t *testing.T) {
	c := Generate(Config{AuxModules: 5, Seed: 1})
	patched, err := Apply(c, ScaleAssign{Module: "micro_mg", Subprogram: "micro_mg_tend",
		Var: "ratio", Factor: 1.0001})
	if err != nil {
		t.Fatal(err)
	}
	var src string
	for _, f := range patched.Files {
		if f.Name == "micro_mg.F90" {
			src = f.Source
		}
	}
	want := "ratio = (qniic / max(1.0e-12, qric + qniic)) * 1.0001"
	if !strings.Contains(src, want) {
		t.Fatalf("patched micro_mg missing %q", want)
	}
	if _, err := patched.Parse(); err != nil {
		t.Fatal(err)
	}
	// Deterministic: applying the same patch twice from scratch gives
	// the same fingerprint, distinct from the clean corpus.
	again, err := Apply(c, ScaleAssign{Module: "micro_mg", Subprogram: "micro_mg_tend",
		Var: "ratio", Factor: 1.0001})
	if err != nil {
		t.Fatal(err)
	}
	if again.Fingerprint() != patched.Fingerprint() {
		t.Fatal("patch application not deterministic")
	}
	if patched.Fingerprint() == c.Fingerprint() {
		t.Fatal("patch did not change the fingerprint")
	}
}

// TestPatchesCompose applies two independent defects; both edits must
// land and the tree must still parse.
func TestPatchesCompose(t *testing.T) {
	c := Generate(Config{AuxModules: 5, Seed: 1})
	patched, err := Apply(c, WsubPatch, GoffGratchPatch)
	if err != nil {
		t.Fatal(err)
	}
	joined := ""
	for _, f := range patched.Files {
		joined += f.Source
	}
	for _, want := range []string{"max(2.00, tke * 0.5)", "8.1828e-3"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("composed patches missing %q", want)
		}
	}
	if _, err := patched.Parse(); err != nil {
		t.Fatal(err)
	}
}

func TestOccurrenceSelectsLaterAssignment(t *testing.T) {
	c := Generate(Config{AuxModules: 5, Seed: 1})
	// dum is assigned several times in micro_mg_tend; occurrence 1 is
	// the second assignment.
	patched, err := Apply(c, ScaleAssign{Subprogram: "micro_mg_tend", Var: "dum",
		Occurrence: 1, Factor: 2})
	if err != nil {
		t.Fatal(err)
	}
	var src string
	for _, f := range patched.Files {
		if f.Name == "micro_mg.F90" {
			src = f.Source
		}
	}
	if !strings.Contains(src, "dum = (qric * 0.3 + ccn * 1.0e-4) * 2.0") {
		t.Fatalf("occurrence patch landed wrong:\n%s", src)
	}
}
