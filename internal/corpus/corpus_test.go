package corpus

import (
	"strings"
	"testing"

	"github.com/climate-rca/rca/internal/metagraph"
)

func TestGenerateParses(t *testing.T) {
	c := Generate(Config{AuxModules: 30, Seed: 3})
	mods, err := c.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != len(c.Files) {
		t.Fatalf("modules %d != files %d", len(mods), len(c.Files))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{AuxModules: 20, Seed: 9})
	b := Generate(Config{AuxModules: 20, Seed: 9})
	if len(a.Files) != len(b.Files) {
		t.Fatal("file counts differ")
	}
	for i := range a.Files {
		if a.Files[i].Source != b.Files[i].Source {
			t.Fatalf("file %s not deterministic", a.Files[i].Name)
		}
	}
	c := Generate(Config{AuxModules: 20, Seed: 10})
	same := true
	for i := range a.Files {
		if a.Files[i].Source != c.Files[i].Source {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestCoreModulesPresent(t *testing.T) {
	c := Generate(Config{AuxModules: 10})
	mods := map[string]bool{}
	for _, m := range c.Modules() {
		mods[m] = true
	}
	for _, want := range []string{
		"shr_kind_mod", "physconst", "ref_pres", "physics_types",
		"chaos_turb", "wv_saturation", "microp_aero", "micro_mg",
		"cldfrc", "cloud_rand_lw", "cloud_rand_sw", "dyn3", "cam_diag",
		"lnd_snow", "cam_driver",
	} {
		if !mods[want] {
			t.Fatalf("core module %s missing", want)
		}
	}
}

func TestBugInjectionChangesSource(t *testing.T) {
	find := func(c *Corpus, file string) string {
		for _, f := range c.Files {
			if f.Name == file {
				return f.Source
			}
		}
		t.Fatalf("file %s missing", file)
		return ""
	}
	inject := func(c *Corpus, p Patch) *Corpus {
		out, err := Apply(c, p)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	clean := Generate(Config{AuxModules: 5})
	if !strings.Contains(find(clean, "microp_aero.F90"), "max(0.20") {
		t.Fatal("clean wsub floor missing")
	}
	ws := inject(clean, WsubPatch)
	if !strings.Contains(find(ws, "microp_aero.F90"), "max(2.00") {
		t.Fatal("WSUBBUG not injected")
	}
	gg := inject(clean, GoffGratchPatch)
	if !strings.Contains(find(gg, "wv_saturation.F90"), "8.1828e-3") {
		t.Fatal("GOFFGRATCH not injected")
	}
	if strings.Contains(find(clean, "wv_saturation.F90"), "8.1828e-3") {
		t.Fatal("clean corpus contains GOFFGRATCH bug")
	}
	d3 := inject(clean, Dyn3Patch)
	if !strings.Contains(find(d3, "dyn3.F90"), "pref * 0.505") {
		t.Fatal("DYN3BUG not injected")
	}
	ri := inject(clean, RandomIdxPatch)
	if !strings.Contains(find(ri, "dyn3.F90"), ", 2) - state%u") {
		t.Fatal("RANDOMBUG not injected")
	}
	ld := inject(clean, LandPatch)
	if !strings.Contains(find(ld, "lnd_snow.F90"), "snowhland * 0.90") {
		t.Fatal("LANDBUG not injected")
	}
}

func TestMetagraphBuildsFromCorpus(t *testing.T) {
	c := Generate(Config{AuxModules: 40, Seed: 2})
	mods, err := c.Parse()
	if err != nil {
		t.Fatal(err)
	}
	mg, err := metagraph.Build(mods)
	if err != nil {
		t.Fatal(err)
	}
	st := mg.Stats()
	if st.Nodes < 300 {
		t.Fatalf("suspiciously small graph: %+v", st)
	}
	if st.Unparsed != 0 {
		t.Fatalf("unparsed statements: %d", st.Unparsed)
	}
	// The paper's key names must exist.
	for _, disp := range []string{"dum__micro_mg_tend", "ratio__micro_mg_tend",
		"tlat__micro_mg_tend", "nctend__micro_mg_tend"} {
		if len(mg.ByDisplay(disp)) != 1 {
			t.Fatalf("display node %s missing", disp)
		}
	}
	if len(mg.ByCanonical("wsub")) == 0 || len(mg.ByCanonical("omega")) == 0 {
		t.Fatal("canonical lookups missing")
	}
	// Output map recovered from outfld calls.
	if mg.OutputMap["FLDS"] != "flwds" || mg.OutputMap["WSUB"] != "wsub" {
		t.Fatalf("OutputMap = %v", mg.OutputMap)
	}
}

func TestComponentTags(t *testing.T) {
	c := Generate(Config{AuxModules: 30, Seed: 1})
	if !c.IsCAM("micro_mg") || !c.IsCAM("dyn3") {
		t.Fatal("core CAM modules not tagged cam")
	}
	if c.IsCAM("lnd_snow") || c.IsCAM("physconst") {
		t.Fatal("non-CAM modules tagged cam")
	}
}

func TestLinesOf(t *testing.T) {
	c := Generate(Config{AuxModules: 30, Seed: 1})
	lines := c.LinesOf()
	if lines["micro_mg"] < 30 {
		t.Fatalf("micro_mg lines = %d", lines["micro_mg"])
	}
	// Some aux module should be longer than micro_mg (padding), so
	// "largest by LoC" differs from "most central".
	foundLong := false
	for m, n := range lines {
		if strings.HasPrefix(m, "aux_phys_") && n > lines["micro_mg"] {
			foundLong = true
		}
	}
	if !foundLong {
		t.Fatal("no padded aux module exceeds micro_mg size")
	}
}

func TestWsubNearIsolated(t *testing.T) {
	// The WSUBBUG sanity check (§6.1) depends on wsub having a tiny
	// ancestor closure.
	c := Generate(Config{AuxModules: 40, Seed: 2})
	mods, err := c.Parse()
	if err != nil {
		t.Fatal(err)
	}
	mg, err := metagraph.Build(mods)
	if err != nil {
		t.Fatal(err)
	}
	wsub := mg.ByCanonical("wsub")
	if len(wsub) == 0 {
		t.Fatal("no wsub nodes")
	}
	anc := mg.G.Ancestors(wsub)
	if len(anc) > 25 {
		t.Fatalf("wsub ancestor closure too large: %d nodes", len(anc))
	}
	if len(anc) < 4 {
		t.Fatalf("wsub ancestor closure trivially small: %d", len(anc))
	}
}

func TestDeadModulesNotInDriver(t *testing.T) {
	c := Generate(Config{AuxModules: 20, Seed: 1})
	var driver string
	for _, f := range c.Files {
		if f.Name == "cam_driver.F90" {
			driver = f.Source
		}
	}
	if strings.Contains(driver, "aux_dead_") {
		t.Fatal("driver references dead modules")
	}
	found := false
	for _, f := range c.Files {
		if strings.HasPrefix(f.Name, "aux_dead_") {
			found = true
		}
	}
	if !found {
		t.Fatal("no dead modules generated")
	}
}
