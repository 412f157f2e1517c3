package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseInjection parses the compact injection syntax the rca and
// corpusgen CLIs accept (-inject) and JSON scenario files embed:
//
//	sub.var*=FACTOR           scale an assignment's RHS
//	                          (micro_mg_tend.ratio*=1.0001)
//	sub.var:OLD=>NEW          replace text inside an assignment
//	                          (aero_run.wsub:0.20=>2.00)
//	prng=mt                   swap the PRNG to Mersenne Twister
//	fma=all | fma=m1,m2       enable FMA everywhere / per module
//	param:NAME=VALUE          perturb an ensemble parameter
//	                          (param:turbcoef=0.02)
//
// Patch targets accept two optional refinements: a module qualifier
// (module/sub.var) and an assignment occurrence (sub.var#2 targets the
// third assignment to var).
func ParseInjection(s string) (Injection, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return nil, fmt.Errorf("experiments: empty injection")
	case strings.HasPrefix(s, "prng="):
		switch v := strings.TrimPrefix(s, "prng="); v {
		case "mt", "mt19937", "mersenne":
			return MersennePRNG(), nil
		default:
			return nil, fmt.Errorf("experiments: unknown PRNG %q (want mt)", v)
		}
	case strings.HasPrefix(s, "fma="):
		v := strings.TrimPrefix(s, "fma=")
		if v == "all" || v == "*" {
			return EnableFMA(), nil
		}
		mods := strings.Split(v, ",")
		for i := range mods {
			mods[i] = strings.TrimSpace(mods[i])
			if mods[i] == "" {
				return nil, fmt.Errorf("experiments: empty module in %q", s)
			}
		}
		return EnableFMA(mods...), nil
	case strings.HasPrefix(s, "param:"):
		body := strings.TrimPrefix(s, "param:")
		name, val, ok := strings.Cut(body, "=")
		if !ok {
			return nil, fmt.Errorf("experiments: want param:NAME=VALUE, got %q", s)
		}
		f, err := parseFinite(val)
		if err != nil {
			return nil, fmt.Errorf("experiments: bad parameter value in %q: %v", s, err)
		}
		// Validate the parameter name eagerly: a typo should fail at
		// flag-parse time, not mid-ensemble.
		inj := PerturbParameter(strings.TrimSpace(name), f)
		if err := inj.apply(&plan{params: map[string]bool{}}); err != nil {
			return nil, fmt.Errorf("experiments: %v", err)
		}
		return inj, nil
	case strings.Contains(s, "*="):
		tgt, val, _ := strings.Cut(s, "*=")
		f, err := parseFinite(val)
		if err != nil {
			return nil, fmt.Errorf("experiments: bad scale factor in %q: %v", s, err)
		}
		module, sub, v, occ, err := parseTarget(tgt)
		if err != nil {
			return nil, err
		}
		return ScaleAssignment{Module: module, Subprogram: sub, Var: v,
			Occurrence: occ, Factor: f}, nil
	case strings.Contains(s, ":") && strings.Contains(s, "=>"):
		tgt, repl, _ := strings.Cut(s, ":")
		old, newText, _ := strings.Cut(repl, "=>")
		if old == "" {
			return nil, fmt.Errorf("experiments: empty old text in %q", s)
		}
		module, sub, v, occ, err := parseTarget(tgt)
		if err != nil {
			return nil, err
		}
		return SourceReplace{Module: module, Subprogram: sub, Var: v,
			Occurrence: occ, Old: old, New: newText}, nil
	}
	return nil, fmt.Errorf("experiments: cannot parse injection %q (see -help for the syntax)", s)
}

// parseTarget parses [module/]sub.var[#occurrence].
func parseTarget(s string) (module, sub, varName string, occ int, err error) {
	s = strings.TrimSpace(s)
	if m, rest, ok := strings.Cut(s, "/"); ok {
		module, s = m, rest
	}
	if t, n, ok := strings.Cut(s, "#"); ok {
		occ, err = strconv.Atoi(n)
		if err != nil || occ < 0 {
			return "", "", "", 0, fmt.Errorf("experiments: bad occurrence in %q", s)
		}
		s = t
	}
	sub, varName, ok := strings.Cut(s, ".")
	if !ok || sub == "" || varName == "" {
		return "", "", "", 0, fmt.Errorf("experiments: want [module/]sub.var, got %q", s)
	}
	return module, sub, varName, occ, nil
}

// parseFinite parses a float and rejects NaN/Inf: non-finite factors
// would break the JSON wire format (encoding/json cannot encode them)
// and make no sense as defects.
func parseFinite(s string) (float64, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("non-finite value %v", f)
	}
	return f, nil
}

// scenarioJSON is the scenario wire format: the on-disk format of
// `rca -scenario` and the request body of rcad's POST /v1/jobs. Each
// inject entry is either a compact-syntax string (see ParseInjection)
// or a structured patch object (see patchJSON) for source patches that
// need fields the compact grammar cannot express (defect-site
// overrides). Alternatively, "experiment" names a prewired catalog
// scenario (WSUBBUG, RAND-MT, GOFFGRATCH, AVX2, RANDOMBUG, DYN3BUG,
// AVX2-FULL, LANDBUG) and excludes inject/camonly/selectk.
type scenarioJSON struct {
	Name       string            `json:"name,omitempty"`
	Experiment string            `json:"experiment,omitempty"`
	CAMOnly    bool              `json:"camonly,omitempty"`
	SelectK    int               `json:"selectk,omitempty"`
	Inject     []json.RawMessage `json:"inject,omitempty"`
}

// patchJSON is the structured wire form of a source-patch injection —
// lossless where the compact string grammar is not (Site overrides,
// replacement text containing grammar metacharacters).
type patchJSON struct {
	Kind       string  `json:"kind"` // "replace" | "scale"
	Module     string  `json:"module,omitempty"`
	Subprogram string  `json:"subprogram"`
	Var        string  `json:"var"`
	Occurrence int     `json:"occurrence,omitempty"`
	Old        string  `json:"old,omitempty"`
	New        string  `json:"new,omitempty"`
	Factor     float64 `json:"factor,omitempty"`
	Site       string  `json:"site,omitempty"`
}

func (p patchJSON) injection() (Injection, error) {
	if p.Subprogram == "" || p.Var == "" {
		return nil, fmt.Errorf("patch needs subprogram and var")
	}
	if p.Occurrence < 0 {
		return nil, fmt.Errorf("negative occurrence %d", p.Occurrence)
	}
	switch p.Kind {
	case "replace":
		if p.Old == "" {
			return nil, fmt.Errorf("replace patch needs old text")
		}
		return SourceReplace{Module: p.Module, Subprogram: p.Subprogram, Var: p.Var,
			Occurrence: p.Occurrence, Old: p.Old, New: p.New, Site: p.Site}, nil
	case "scale":
		if math.IsNaN(p.Factor) || math.IsInf(p.Factor, 0) {
			return nil, fmt.Errorf("non-finite factor")
		}
		return ScaleAssignment{Module: p.Module, Subprogram: p.Subprogram, Var: p.Var,
			Occurrence: p.Occurrence, Factor: p.Factor, Site: p.Site}, nil
	}
	return nil, fmt.Errorf("unknown patch kind %q (want replace or scale)", p.Kind)
}

// catalogScenario resolves a prewired experiment by display name.
func catalogScenario(name string) (Scenario, bool) {
	for _, sc := range catalog {
		if strings.EqualFold(sc.Name(), name) {
			return sc, true
		}
	}
	return nil, false
}

// ScenarioFromJSON decodes a scenario definition:
//
//	{"name": "WSUB+GG", "camonly": true, "selectk": 5,
//	 "inject": ["aero_run.wsub:0.20=>2.00", "prng=mt",
//	            {"kind": "scale", "subprogram": "micro_mg_tend",
//	             "var": "ratio", "factor": 1.0001, "site": "ratio"}]}
//
// or a prewired catalog reference, optionally renamed:
//
//	{"experiment": "GOFFGRATCH"}
func ScenarioFromJSON(data []byte) (Scenario, error) {
	var def scenarioJSON
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("experiments: scenario JSON: %w", err)
	}
	if def.Experiment != "" {
		if len(def.Inject) > 0 || def.CAMOnly || def.SelectK != 0 {
			return nil, fmt.Errorf("experiments: scenario JSON: experiment %q excludes inject/camonly/selectk (the catalog fixes them)", def.Experiment)
		}
		sc, ok := catalogScenario(def.Experiment)
		if !ok {
			return nil, fmt.Errorf("experiments: scenario JSON: unknown experiment %q", def.Experiment)
		}
		if def.Name != "" && def.Name != sc.Name() {
			return NewScenario(def.Name, sc.Options(), sc.Injections()...), nil
		}
		return sc, nil
	}
	if def.Name == "" {
		return nil, fmt.Errorf("experiments: scenario JSON: missing name")
	}
	injs := make([]Injection, 0, len(def.Inject))
	for _, raw := range def.Inject {
		inj, err := InjectionFromWire(raw)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", def.Name, err)
		}
		injs = append(injs, inj)
	}
	return NewScenario(def.Name, ScenarioOptions{CAMOnly: def.CAMOnly, SelectK: def.SelectK}, injs...), nil
}

// ScenarioToJSON serializes a scenario to the wire format, the inverse
// of ScenarioFromJSON: parsing the result yields a scenario with the
// same name, options and injection fingerprints. Source patches are
// emitted in structured form (lossless); configuration injections use
// the compact syntax. Injection implementations outside this package
// cannot be serialized and return an error.
func ScenarioToJSON(sc Scenario) ([]byte, error) {
	def := scenarioJSON{
		Name:    sc.Name(),
		CAMOnly: sc.Options().CAMOnly,
		SelectK: sc.Options().SelectK,
	}
	for _, inj := range sc.Injections() {
		if inj == nil {
			continue
		}
		entry, err := injectionWire(inj)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %s: %w", sc.Name(), err)
		}
		raw, err := json.Marshal(entry)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %s: injection %s: %w", sc.Name(), inj.ID(), err)
		}
		def.Inject = append(def.Inject, raw)
	}
	return json.Marshal(def)
}

// InjectionFromWire decodes one inject-array entry of the wire format:
// a compact-syntax string (see ParseInjection) or a structured patch
// object (see patchJSON). The search wire format reuses these entries
// for its candidate pool.
func InjectionFromWire(raw json.RawMessage) (Injection, error) {
	if len(raw) > 0 && raw[0] == '"' {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, err
		}
		return ParseInjection(s)
	}
	var p patchJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, err
	}
	return p.injection()
}

// InjectionToWire serializes one injection to its wire entry, the
// inverse of InjectionFromWire.
func InjectionToWire(inj Injection) (json.RawMessage, error) {
	entry, err := injectionWire(inj)
	if err != nil {
		return nil, err
	}
	return json.Marshal(entry)
}

// injectionWire maps an injection to its wire entry: a patchJSON for
// source patches, a compact string for configuration injections.
func injectionWire(inj Injection) (any, error) {
	switch v := inj.(type) {
	case SourceReplace:
		return patchJSON{Kind: "replace", Module: v.Module, Subprogram: v.Subprogram,
			Var: v.Var, Occurrence: v.Occurrence, Old: v.Old, New: v.New, Site: v.Site}, nil
	case ScaleAssignment:
		return patchJSON{Kind: "scale", Module: v.Module, Subprogram: v.Subprogram,
			Var: v.Var, Occurrence: v.Occurrence, Factor: v.Factor, Site: v.Site}, nil
	case prngInjection:
		return "prng=mt", nil
	case fmaInjection:
		if len(v.modules) == 0 {
			return "fma=all", nil
		}
		// A single module literally named "all" or "*" would read back
		// as enable-everywhere, changing the fingerprint.
		if len(v.modules) == 1 && (v.modules[0] == "all" || v.modules[0] == "*") {
			return nil, fmt.Errorf("FMA module %q is not expressible in the wire syntax", v.modules[0])
		}
		for _, m := range v.modules {
			// The compact syntax splits on "," and trims each module:
			// anything that split-and-trim would not map back to
			// itself has no faithful wire form.
			if m == "" || m != strings.TrimSpace(m) || strings.Contains(m, ",") {
				return nil, fmt.Errorf("FMA module %q is not expressible in the wire syntax", m)
			}
		}
		return "fma=" + strings.Join(v.modules, ","), nil
	case paramInjection:
		if strings.Contains(v.name, "=") || math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			return nil, fmt.Errorf("parameter injection %s is not expressible in the wire syntax", v.ID())
		}
		return fmt.Sprintf("param:%s=%s", v.name, strconv.FormatFloat(v.value, 'g', -1, 64)), nil
	}
	return nil, fmt.Errorf("injection %s (%T) has no wire form", inj.ID(), inj)
}
