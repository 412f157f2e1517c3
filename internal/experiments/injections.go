package experiments

import (
	"fmt"
	"sort"
	"strings"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/kgen"
	"github.com/climate-rca/rca/internal/metagraph"
	"github.com/climate-rca/rca/internal/model"
)

// Injection is one composable element of a scenario: a source patch
// over a named corpus subprogram, a PRNG swap, a per-module FMA
// toggle, or an ensemble-parameter perturbation. Implementations are
// provided by this package (the interface is sealed through its
// unexported methods) but the provided kinds are open-ended in what
// they target: any subprogram, any assignment, any module set.
type Injection interface {
	// ID is the injection's stable fingerprint. Scenario cache keys
	// are derived from it, so equal IDs must imply identical builds
	// and identical defect sites.
	ID() string
	// apply lowers the injection onto a build plan.
	apply(p *plan) error
	// sites locates the injection's known defect nodes in the compiled
	// metagraph (used by the reachability simulation and the step-9
	// success check) plus any KGen-flagged kernel variable names.
	sites(in siteInput) ([]int, []string, error)
}

// siteInput is what defect-site resolution may consult.
type siteInput struct {
	mg             *metagraph.Metagraph
	control, exper *model.Runner
	expRun         model.RunConfig
}

// KernelWatch is the module::subprogram the KGen workflow (§6.4)
// extracts and compares under both FMA configurations.
const KernelWatch = "micro_mg::micro_mg_tend"

// --- Source patches ------------------------------------------------

// SourceReplace injects a defect by replacing Old with New inside the
// Occurrence'th assignment to Var in Subprogram — the §6 defect family
// (transposed digits, wrong coefficients, off-by-one indices).
type SourceReplace struct {
	Module     string // optional; "" searches every module
	Subprogram string
	Var        string
	Occurrence int
	Old, New   string
	// Site optionally overrides the metagraph defect-site locator:
	// either a full node key ("module::subprogram::variable") or a
	// bare canonical variable name. When empty the patched
	// assignment's left-hand side is used.
	Site string
}

func (i SourceReplace) patch() corpus.Patch {
	return corpus.ReplaceInAssign{Module: i.Module, Subprogram: i.Subprogram,
		Var: i.Var, Occurrence: i.Occurrence, Old: i.Old, New: i.New}
}

// ID is the injection fingerprint.
func (i SourceReplace) ID() string { return patchID(i.patch(), i.Site) }

func (i SourceReplace) apply(p *plan) error {
	return applyPatch(p, i.patch(), i.Site,
		targetKey(i.Module, i.Subprogram, i.Var, i.Occurrence))
}

func (i SourceReplace) sites(in siteInput) ([]int, []string, error) {
	ids, err := resolveSite(in.mg, i.Module, i.Subprogram, i.Var, i.Site)
	return ids, nil, err
}

// ScaleAssignment injects a defect by multiplying the right-hand side
// of the targeted assignment by Factor — e.g. micro_mg_tend.ratio *=
// 1.0001, the ensemble-parameter-perturbation defect family.
type ScaleAssignment struct {
	Module     string
	Subprogram string
	Var        string
	Occurrence int
	Factor     float64
	// Site overrides the defect-site locator; see SourceReplace.Site.
	Site string
}

func (i ScaleAssignment) patch() corpus.Patch {
	return corpus.ScaleAssign{Module: i.Module, Subprogram: i.Subprogram,
		Var: i.Var, Occurrence: i.Occurrence, Factor: i.Factor}
}

// ID is the injection fingerprint.
func (i ScaleAssignment) ID() string { return patchID(i.patch(), i.Site) }

func (i ScaleAssignment) apply(p *plan) error {
	return applyPatch(p, i.patch(), i.Site,
		targetKey(i.Module, i.Subprogram, i.Var, i.Occurrence))
}

func (i ScaleAssignment) sites(in siteInput) ([]int, []string, error) {
	ids, err := resolveSite(in.mg, i.Module, i.Subprogram, i.Var, i.Site)
	return ids, nil, err
}

func patchID(p corpus.Patch, site string) string {
	id := p.ID()
	if site != "" {
		id += "@" + site
	}
	return id
}

// targetKey canonicalizes the assignment a patch edits, for conflict
// detection. The module is deliberately excluded: subprogram names are
// unique in the corpus, so a module-qualified and an unqualified patch
// of the same assignment still collide.
func targetKey(module, sub, varName string, occ int) string {
	_ = module
	return fmt.Sprintf("%s.%s#%d", strings.ToLower(sub), strings.ToLower(varName), occ)
}

// applyPatch registers a source patch on the plan, rejecting a second
// patch of the same assignment (order-dependent double edits would
// make fingerprints ambiguous). The Site override joins the
// scenario-layer fingerprint only: it steers defect-site resolution,
// not the build, so scenarios differing only in Site still share
// corpus runners and compiled metagraphs.
func applyPatch(p *plan, patch corpus.Patch, site, target string) error {
	if p.patchTargets[target] {
		return conflictf("assignment %s patched twice", target)
	}
	p.patchTargets[target] = true
	p.patches = append(p.patches, patch)
	p.sourceIDs = append(p.sourceIDs, patch.ID())
	if site != "" {
		p.siteIDs = append(p.siteIDs, patchID(patch, site))
	}
	return nil
}

// resolveSite maps a patch target onto metagraph defect nodes: an
// explicit Site wins (node key, else canonical name); otherwise the
// assignment's LHS is resolved as subprogram-local, then module-level,
// then by canonical name.
func resolveSite(mg *metagraph.Metagraph, module, sub, varName, site string) ([]int, error) {
	if site != "" {
		if strings.Contains(site, "::") {
			if id, ok := mg.NodeID(site); ok {
				return []int{id}, nil
			}
			return nil, fmt.Errorf("%w: defect site %q not in metagraph",
				corpus.ErrUnknownSubprogram, site)
		}
		if ids := mg.ByCanonical(strings.ToLower(site)); len(ids) > 0 {
			return ids, nil
		}
		return nil, fmt.Errorf("%w: defect site %q not in metagraph",
			corpus.ErrUnknownSubprogram, site)
	}
	v := strings.ToLower(varName)
	if module != "" {
		m := strings.ToLower(module)
		if id, ok := mg.NodeID(m + "::" + strings.ToLower(sub) + "::" + v); ok {
			return []int{id}, nil
		}
		if id, ok := mg.NodeID(m + "::::" + v); ok {
			return []int{id}, nil
		}
	}
	if ids := mg.ByCanonical(v); len(ids) > 0 {
		return ids, nil
	}
	return nil, fmt.Errorf("%w: defect variable %q not in metagraph",
		corpus.ErrUnknownSubprogram, varName)
}

// --- PRNG swap -----------------------------------------------------

type prngInjection struct{}

// MersennePRNG swaps the model's random_number generator from the
// CESM-like KISS default to Mersenne Twister (§6.2 RAND-MT).
func MersennePRNG() Injection { return prngInjection{} }

// ID is the injection fingerprint.
func (prngInjection) ID() string { return "prng:mt19937" }

func (prngInjection) apply(p *plan) error {
	if p.prngSet {
		return conflictf("two PRNG swaps")
	}
	p.prngSet = true
	p.expRun.RNG = model.RNGMersenne
	p.runIDs = append(p.runIDs, "prng:mt19937")
	return nil
}

// sites are the variables immediately defined by PRNG output (§6.2).
func (prngInjection) sites(in siteInput) ([]int, []string, error) {
	var out []int
	for i := range in.mg.Nodes {
		n := in.mg.Nodes[i]
		if n.Intrinsic && strings.HasPrefix(n.Canonical, "random_number_") {
			for _, v := range in.mg.G.Out(i) {
				out = append(out, int(v))
			}
		}
	}
	sort.Ints(out)
	return out, nil, nil
}

// --- FMA toggles ---------------------------------------------------

type fmaInjection struct {
	modules []string // sorted, deduplicated; empty = every module
}

// EnableFMA enables fused multiply-add in the named modules — or, with
// no arguments, everywhere (the §6.4 AVX2 port). Defect sites come
// from the KGen kernel comparison: the Morrison-Gettelman variables
// whose values diverge between the FMA-off and FMA-on builds.
func EnableFMA(modules ...string) Injection {
	set := map[string]bool{}
	for _, m := range modules {
		set[strings.ToLower(m)] = true
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return fmaInjection{modules: out}
}

// ID is the injection fingerprint.
func (i fmaInjection) ID() string {
	if len(i.modules) == 0 {
		return "fma:*"
	}
	return "fma:" + strings.Join(i.modules, ",")
}

func (i fmaInjection) apply(p *plan) error {
	if p.fmaSet {
		return conflictf("two FMA policies")
	}
	p.fmaSet = true
	if len(i.modules) == 0 {
		p.expRun.FMA = func(string) bool { return true }
	} else {
		set := make(map[string]bool, len(i.modules))
		for _, m := range i.modules {
			set[m] = true
		}
		p.expRun.FMA = func(m string) bool { return set[m] }
	}
	p.runIDs = append(p.runIDs, i.ID())
	return nil
}

func (i fmaInjection) sites(in siteInput) ([]int, []string, error) {
	off, err := in.control.Run(model.RunConfig{KernelWatch: KernelWatch})
	if err != nil {
		return nil, nil, err
	}
	on, err := in.exper.Run(model.RunConfig{KernelWatch: KernelWatch, FMA: in.expRun.FMA})
	if err != nil {
		return nil, nil, err
	}
	flagged := kgen.CompareKernels(off.Kernel, on.Kernel, kgen.RMSThreshold)
	var ids []int
	var names []string
	for _, f := range flagged {
		names = append(names, f.Variable)
		if id, ok := in.mg.NodeID(KernelWatch + "::" + f.Variable); ok {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, names, nil
}

// --- Ensemble-parameter perturbations ------------------------------

type paramInjection struct {
	name  string
	value float64
}

// PerturbParameter perturbs one of the corpus generation parameters
// that shape the ensemble: "turbcoef" (internal-variability coupling),
// "fmagain" (the deterministic FMA-sensitive cancellation gain) or
// "auxfmagain" (the distributed weak FMA kernels). A zero value is
// refused when the scenario is planned: corpus.Config reads 0 as the
// default.
func PerturbParameter(name string, value float64) Injection {
	return paramInjection{name: strings.ToLower(name), value: value}
}

// ID is the injection fingerprint.
func (i paramInjection) ID() string {
	return fmt.Sprintf("param:%s=%s", i.name, corpus.FormatFactor(i.value))
}

func (i paramInjection) apply(p *plan) error {
	if p.params[i.name] {
		return conflictf("parameter %s perturbed twice", i.name)
	}
	p.params[i.name] = true
	switch i.name {
	case "turbcoef":
		p.cfg.TurbCoef = i.value
	case "fmagain":
		p.cfg.FMAGain = i.value
	case "auxfmagain":
		p.cfg.AuxFMAGain = i.value
	default:
		return fmt.Errorf("unknown ensemble parameter %q (want turbcoef, fmagain or auxfmagain)", i.name)
	}
	if i.value == 0 {
		// corpus.Config reads a zero parameter as unset, so a 0 would
		// run the default value while reporting a perturbation.
		return fmt.Errorf("parameter %s=0 is not a perturbation: 0 means the default value", i.name)
	}
	p.sourceIDs = append(p.sourceIDs, i.ID())
	return nil
}

// Parameter perturbations change coefficients woven through the whole
// generated tree; they have no single defect node.
func (paramInjection) sites(siteInput) ([]int, []string, error) { return nil, nil, nil }

// --- The prewired catalog ------------------------------------------

// fromBugPatch lifts one of corpus's catalog patch literals into a
// SourceReplace injection, so the corpus package stays the single
// source of truth for the catalog's patch literals.
func fromBugPatch(r corpus.ReplaceInAssign, site string) Injection {
	return SourceReplace{Module: r.Module, Subprogram: r.Subprogram,
		Var: r.Var, Occurrence: r.Occurrence, Old: r.Old, New: r.New, Site: site}
}

// WsubDefect transposes 0.20 to 2.00 in microp_aero's wsub assignment
// (§6.1 WSUBBUG). The defect site is every node with canonical name
// wsub — the paper counts the whole near-isolated wsub region.
func WsubDefect() Injection { return fromBugPatch(corpus.WsubPatch, "wsub") }

// GoffGratchDefect changes the water-boiling-temperature coefficient
// 8.1328e-3 to 8.1828e-3 in the Goff-Gratch elemental function (§6.3).
// The paper's defect site is the function result es, not the edited
// intermediate e2.
func GoffGratchDefect() Injection {
	return fromBugPatch(corpus.GoffGratchPatch, "wv_saturation::goffgratch_svp::es")
}

// Dyn3Defect perturbs a coefficient in the dyn3 hydrostatic pressure
// subroutine (§8.2.2 DYN3BUG).
func Dyn3Defect() Injection { return fromBugPatch(corpus.Dyn3Patch, "") }

// RandomIdxDefect is the RANDOMBUG array-index error feeding the
// derived-type state variable omega (§8.2.1).
func RandomIdxDefect() Injection { return fromBugPatch(corpus.RandomIdxPatch, "") }

// LandDefect perturbs the land model's snow retention coefficient
// (§6's land-module defect).
func LandDefect() Injection { return fromBugPatch(corpus.LandPatch, "") }
