// Command fmalint checks that the execution engine's floating point
// rounds the same on every architecture. Go may fuse x*y + z into one
// fused multiply-add instruction on arm64, ppc64le and s390x (never on
// amd64), which rounds once instead of twice and so changes results
// bit for bit. The engine fuses only where the program asks for FMA,
// through math.FMA; everywhere else an explicit float64(x*y) keeps the
// product rounded.
//
// fmalint cross-compiles the packages with -gcflags=-S for each of the
// three architectures and reports every fused multiply-add instruction
// whose source line does not call math.FMA. The position the assembler
// listing gives is the innermost one, so code inlined from another
// package is checked at its own line. It builds offline with the local
// toolchain and exits 1 on any finding.
//
// Usage, from the repository root:
//
//	go run ./cmd/fmalint                    # the engine packages
//	go run ./cmd/fmalint ./internal/lasso   # other packages
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// enginePkgs are the packages whose floats the determinism contract
// covers.
var enginePkgs = []string{"./internal/bytecode", "./internal/interp", "./internal/model"}

var arches = []string{"arm64", "ppc64le", "s390x"}

// asmLine matches an instruction line of the -S listing: its source
// position and mnemonic.
var asmLine = regexp.MustCompile(`\(([^()\s]+\.go):(\d+)\)\s+([A-Z][A-Z0-9.]*)`)

// fusedOp matches the fused multiply-add mnemonics of the three
// architectures: arm64 FMADDD/FMSUBD/FNMADDD/FNMSUBD (and the single
// precision S forms), ppc64 FMADD/FMSUB/FNMADD/FNMSUB(S) and the VSX
// XSMADDADP family, s390x FMADD/FMSUB(S) and the vector WFMA/VFMA
// family.
var fusedOp = regexp.MustCompile(`^(FN?M(ADD|SUB)[DS]?|XSN?M(ADD|SUB)[AM][DS]P|[VW]FN?M[AS][DS]?B?|VFML[AS])$`)

type finding struct {
	file string
	line int
	arch string
	op   string
	src  string
}

func main() {
	pkgs := os.Args[1:]
	if len(pkgs) == 0 {
		pkgs = enginePkgs
	}
	var found []finding
	lines := map[string][]string{}
	for _, arch := range arches {
		out, err := listing(arch, pkgs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fmalint: %s: %v\n%s", arch, err, out)
			os.Exit(2)
		}
		seen := map[string]bool{}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			m := asmLine.FindStringSubmatch(sc.Text())
			if m == nil || !fusedOp.MatchString(m[3]) {
				continue
			}
			file, op := m[1], m[3]
			n, _ := strconv.Atoi(m[2])
			src, err := sourceLine(lines, file, n)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fmalint: %v\n", err)
				os.Exit(2)
			}
			key := fmt.Sprintf("%s:%d:%s", file, n, op)
			if strings.Contains(src, "math.FMA(") || seen[key] {
				continue
			}
			seen[key] = true
			found = append(found, finding{file, n, arch, op, strings.TrimSpace(src)})
		}
	}
	sort.Slice(found, func(i, j int) bool {
		a, b := found[i], found[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		return a.arch < b.arch
	})
	for _, f := range found {
		fmt.Printf("%s:%d: %s %s outside math.FMA: %s\n", f.file, f.line, f.arch, f.op, f.src)
	}
	if len(found) > 0 {
		fmt.Printf("fmalint: %d fused multiply-add(s) outside math.FMA in %s\n", len(found), strings.Join(pkgs, " "))
		os.Exit(1)
	}
	fmt.Printf("fmalint: no fused multiply-add outside math.FMA in %s (%s)\n", strings.Join(pkgs, " "), strings.Join(arches, ", "))
}

// listing cross-compiles pkgs for arch and returns the compiler's
// assembly listing. The build cache replays a cached package's listing,
// so repeated runs are cheap.
func listing(arch string, pkgs []string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-S"}, pkgs...)...)
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
	return cmd.CombinedOutput()
}

// sourceLine returns line n of file, caching each file's lines.
func sourceLine(cache map[string][]string, file string, n int) (string, error) {
	ls, ok := cache[file]
	if !ok {
		data, err := os.ReadFile(file)
		if err != nil {
			return "", err
		}
		ls = strings.Split(string(data), "\n")
		cache[file] = ls
	}
	if n < 1 || n > len(ls) {
		return "", fmt.Errorf("%s has no line %d", file, n)
	}
	return ls[n-1], nil
}
