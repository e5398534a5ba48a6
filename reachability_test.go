//go:build probe

package aipow_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// binaries are every program a deployment runs: the six commands and the
// serving benchmark.
var binaries = []string{
	"./cmd/attacksim", "./cmd/benchdump", "./cmd/dabr", "./cmd/powclient",
	"./cmd/powserver", "./cmd/promcheck", "./bench",
}

// gatedPackages must not declare a function that no binary links, except
// the ones allowlisted below with their reason.
var gatedPackages = []string{
	"aipow/internal/features", "aipow/internal/httpmw", "aipow/internal/metrics",
	"aipow/internal/obs", "aipow/internal/policy", "aipow/internal/reputation",
}

var reachAllowlist = map[string]string{
	"aipow/internal/features.NewMapScorer":                "façade: the documented path for custom models",
	"aipow/internal/features.SourceFromMap":               "façade: the documented path for custom models",
	"aipow/internal/features.mapScorer.Schema":            "façade: the NewMapScorer adapter's method",
	"aipow/internal/features.mapScorer.ScoreVector":       "façade: the NewMapScorer adapter's method",
	"aipow/internal/features.mapSource.AttributesVector":  "façade: the SourceFromMap adapter's method",
	"aipow/internal/features.WithShards":                  "façade: aipow.WithTrackerShards",
	"aipow/internal/features.(*Schema).Name":              "façade: a method of the exported Schema type",
	"aipow/internal/features.(*MapStore).Attributes":      "façade: what makes a MapStore a MapSource",
	"aipow/internal/features.(*Tracker).PendingWriteBack": "core's tests read the write-back backlog across packages",
	"aipow/internal/httpmw.(*ProxyAuth).Sign":             proxySide,
	"aipow/internal/httpmw.(*ProxyAuth).signAt":           proxySide,
}

// proxySide is the reason the proxy-auth signer stays unlinked.
const proxySide = "the proxy tier's half of the /batch proxy-auth scheme in SPEC.md; no proxy binary lives in this repo"

// TestReachability builds every binary with inlining off for this
// module's packages, lists its symbols with go tool nm, and reports each
// function declared under internal/ that no binary links. Run it with
//
//	go test -tags probe -run TestReachability -v .
func TestReachability(t *testing.T) {
	linked := map[string]bool{}
	dir := t.TempDir()
	generic := regexp.MustCompile(`\[[^\]]*\]`)
	for _, pkg := range binaries {
		bin := filepath.Join(dir, filepath.Base(pkg))
		if out, err := exec.Command("go", "build", "-gcflags=aipow/...=-l", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("nm %s: %v", pkg, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) >= 3 && (f[len(f)-2] == "T" || f[len(f)-2] == "t") {
				linked[generic.ReplaceAllString(f[len(f)-1], "")] = true
			}
		}
	}

	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	unreached := map[string][]string{}
	for _, d := range dirs {
		bp, err := build.ImportDir(d, 0)
		if err != nil {
			continue // not a package directory
		}
		path := "aipow/" + filepath.ToSlash(d)
		for _, sym := range declaredFuncs(t, d, path, bp.GoFiles) {
			if !linked[sym] {
				unreached[path] = append(unreached[path], sym)
			}
		}
	}

	pkgs := make([]string, 0, len(unreached))
	for p := range unreached {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	for _, p := range pkgs {
		syms := unreached[p]
		sort.Strings(syms)
		t.Logf("%s: %d unreached", p, len(syms))
		for _, s := range syms {
			if why, ok := reachAllowlist[s]; ok {
				t.Logf("  %s (allowed: %s)", s, why)
			} else {
				t.Logf("  %s", s)
			}
		}
	}
	for _, p := range gatedPackages {
		for _, s := range unreached[p] {
			if _, ok := reachAllowlist[s]; !ok {
				t.Errorf("%s is linked into no binary: delete it, or allowlist it with a reason", s)
			}
		}
	}
	for s := range reachAllowlist {
		if linked[s] {
			t.Errorf("allowlisted %s is linked now: drop it from the allowlist", s)
		}
	}
}

// declaredFuncs lists the linker symbol of every function and method the
// package's files declare: pkg.F, pkg.T.M or pkg.(*T).M.
func declaredFuncs(t *testing.T, dir, path string, files []string) []string {
	t.Helper()
	fset := token.NewFileSet()
	var syms []string
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			if fn.Recv == nil {
				syms = append(syms, path+"."+fn.Name.Name)
				continue
			}
			typ, ptr := fn.Recv.List[0].Type, false
			if star, ok := typ.(*ast.StarExpr); ok {
				typ, ptr = star.X, true
			}
			switch g := typ.(type) {
			case *ast.IndexExpr:
				typ = g.X
			case *ast.IndexListExpr:
				typ = g.X
			}
			recv := typ.(*ast.Ident).Name
			if ptr {
				recv = "(*" + recv + ")"
			}
			syms = append(syms, path+"."+recv+"."+fn.Name.Name)
		}
	}
	return syms
}
