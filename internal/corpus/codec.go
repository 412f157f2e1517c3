package corpus

import (
	"fmt"
	"sort"

	"github.com/climate-rca/rca/internal/binenc"
)

// corpusCodecVersion is bumped on any change to the encoding below;
// the artifact store then treats older blobs as misses.
const corpusCodecVersion uint32 = 2

// Encode serializes the corpus — files, manifest and generation
// configuration — to the deterministic artifact format: same corpus,
// same bytes, including across an Encode/Decode round trip.
func (c *Corpus) Encode() ([]byte, error) {
	if c == nil {
		return nil, fmt.Errorf("corpus: encode nil corpus")
	}
	w := binenc.NewWriter(1 << 16)
	w.U32(corpusCodecVersion)

	w.Len(len(c.Files))
	for _, f := range c.Files {
		w.String(f.Name)
		w.String(f.Source)
		w.String(f.Component)
		w.Bool(f.Core)
	}

	w.Int(c.cfg.AuxModules)
	w.Int(c.cfg.AuxVars)
	w.U64(c.cfg.Seed)
	w.F64(c.cfg.FMAGain)
	w.F64(c.cfg.AuxFMAGain)
	w.F64(c.cfg.TurbCoef)
	w.Int(c.cfg.UnusedModules)
	w.Int(c.cfg.UnusedSubprogramPct)

	w.String(c.DriverModule)
	w.String(c.InitSub)
	w.String(c.StepSub)

	writeStringMap(w, c.OutputToInternal)
	writeStringMap(w, c.ComponentOf)

	w.Len(len(c.AuxCalled))
	for _, m := range c.AuxCalled {
		w.String(m)
	}
	return w.Bytes(), nil
}

// Decode reconstructs a corpus from Encode bytes. The result behaves
// identically to the generated original: its file texts are the
// process's canonical copies, and Parse shares modules through the
// process-wide parse cache by source text.
func Decode(data []byte) (*Corpus, error) {
	r := binenc.NewReader(data)
	if v := r.U32(); v != corpusCodecVersion {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("corpus: codec version %d, want %d", v, corpusCodecVersion)
	}
	c := &Corpus{}
	c.Files = make([]File, r.Len())
	for i := range c.Files {
		c.Files[i] = File{
			Name:      r.String(),
			Source:    r.String(),
			Component: r.String(),
			Core:      r.Bool(),
		}
	}

	c.cfg.AuxModules = r.Int()
	c.cfg.AuxVars = r.Int()
	c.cfg.Seed = r.U64()
	c.cfg.FMAGain = r.F64()
	c.cfg.AuxFMAGain = r.F64()
	c.cfg.TurbCoef = r.F64()
	c.cfg.UnusedModules = r.Int()
	c.cfg.UnusedSubprogramPct = r.Int()

	c.DriverModule = r.String()
	c.InitSub = r.String()
	c.StepSub = r.String()

	c.OutputToInternal = readStringMap(r)
	c.ComponentOf = readStringMap(r)

	c.AuxCalled = make([]string, r.Len())
	for i := range c.AuxCalled {
		c.AuxCalled[i] = r.String()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	for i := range c.Files {
		c.Files[i].Source = intern(c.Files[i].Source)
	}
	return c, nil
}

func writeStringMap(w *binenc.Writer, m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Len(len(keys))
	for _, k := range keys {
		w.String(k)
		w.String(m[k])
	}
}

func readStringMap(r *binenc.Reader) map[string]string {
	n := r.Len()
	m := make(map[string]string, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.String()
		m[k] = r.String()
	}
	return m
}
