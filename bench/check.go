package main

import (
	"bufio"
	"bytes"
	"context"
	"embed"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	rca "github.com/climate-rca/rca"
)

// testdata holds the committed output digests: for each workload and
// for seeds 1 and 2, the sha-256 of every op's output bytes, one
// "<key> <hex>" line per input (see harness.refKey).
//
//go:embed testdata
var testdata embed.FS

// digestSeeds are the seeds with committed digests: the default seed
// and a holdout.
var digestSeeds = []uint64{1, 2}

// digestCount is how many inputs each digest file covers; ops beyond it
// are checked like ops of any other seed. Catalog ops all share one
// input.
var digestCount = map[string]int{"catalog": 1, "search": 300, "service": 900}

func digestFile(workload string, seed uint64) string {
	return fmt.Sprintf("%s_%d.sha256", workload, seed)
}

// loadDigests returns the committed digests of a workload and seed by
// input key, or nil when the seed has none.
func loadDigests(workload string, seed uint64) (map[int]string, error) {
	data, err := testdata.ReadFile("testdata/" + digestFile(workload, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return parseDigests(data)
}

func parseDigests(data []byte) (map[int]string, error) {
	out := make(map[int]string)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		key, hex, ok := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		k, err := strconv.Atoi(key)
		if !ok || err != nil || len(hex) != 64 {
			return nil, fmt.Errorf("digest line %d: want \"<key> <sha256>\", got %q", n, sc.Text())
		}
		out[k] = hex
	}
	return out, sc.Err()
}

// verify checks the ops' output digests: every op whose input has a
// committed digest against it, and a seeded sample of up to five other
// ops against h.reference, which recomputes the output in-process on a
// fresh session at parallelism 1; a reference digest then also checks
// every other op sharing its input. A mismatching op gets an error. It
// returns how many ops were checked.
func verify(ctx context.Context, h *harness, recs []opRecord, committed map[int]string, seed uint64) (int, error) {
	refs := make(map[int]string, len(committed))
	for k, d := range committed {
		refs[k] = d
	}
	var uncovered []int
	for _, r := range recs {
		if _, ok := refs[h.refKey(r.Index)]; !ok && r.Err == "" {
			uncovered = append(uncovered, r.Index)
		}
	}
	rng := rand.New(rand.NewPCG(seed, math.MaxUint64))
	rng.Shuffle(len(uncovered), func(i, j int) { uncovered[i], uncovered[j] = uncovered[j], uncovered[i] })
	for _, i := range uncovered[:min(5, len(uncovered))] {
		if _, ok := refs[h.refKey(i)]; ok {
			continue
		}
		d, err := h.reference(ctx, i)
		if err != nil {
			return 0, fmt.Errorf("reference for op %d: %w", i, err)
		}
		refs[h.refKey(i)] = d
	}
	checked := 0
	for p, r := range recs {
		want, ok := refs[h.refKey(r.Index)]
		if !ok || r.Err != "" {
			continue
		}
		checked++
		if r.Digest != want {
			recs[p].Err = fmt.Sprintf("output digest %.12s, want %.12s", r.Digest, want)
		}
	}
	return checked, nil
}

// update regenerates the digest files of the given workloads for the
// digest seeds into dir, computing every output at parallelism 1.
func update(ctx context.Context, dir string, names []string) error {
	for _, name := range names {
		for _, seed := range digestSeeds {
			digests, err := referenceDigests(ctx, name, seed, digestCount[name])
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			var b bytes.Buffer
			for k, d := range digests {
				fmt.Fprintf(&b, "%d %s\n", k, d)
			}
			path := filepath.Join(dir, digestFile(name, seed))
			if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s (%d digests)\n", path, len(digests))
		}
	}
	return nil
}

func referenceDigests(ctx context.Context, name string, seed uint64, n int) ([]string, error) {
	out := make([]string, 0, n)
	switch name {
	case "catalog":
		d, err := catalogReference(ctx, 0)
		return append(out, d), err
	case "search":
		for i := 0; i < n; i++ {
			d, err := searchReference(ctx, seed, i)
			if err != nil {
				return nil, err
			}
			out = append(out, d)
		}
		return out, nil
	case "service":
		// A fresh session every 40 scenarios bounds memory: sessions
		// keep every scenario they ran.
		gen := &serviceGen{seed: seed}
		seen := make(map[string]string)
		var s *rca.Session
		for i := 0; i < n; i++ {
			job := gen.job(i)
			d, ok := seen[job.name]
			if !ok {
				if len(seen)%40 == 0 {
					s = newSession(rca.WithParallelism(1))
				}
				sc, err := rca.ScenarioFromJSON(job.body)
				if err != nil {
					return nil, err
				}
				o, err := s.Run(ctx, sc)
				if err != nil {
					return nil, err
				}
				d = digest([]byte(rca.FormatOutcome(o)))
				seen[job.name] = d
			}
			out = append(out, d)
		}
		return out, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
