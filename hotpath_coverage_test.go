package lbsq

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"

	"lbsq/internal/analysis/hotpath"
)

// hotpathAsserted maps source files to the functions whose
// allocation-freedom a benchmark asserts (testing.AllocsPerRun == 0 in
// BenchmarkSessionMove, BenchmarkSessionStrategies, BenchmarkCacheHitPath/hit,
// BenchmarkWALAppend/os, BenchmarkArenaNN, BenchmarkArenaWindow, and
// BenchmarkTPKNN). Every one of them must
// carry the //lbsq:hotpath directive so `make vet` guards what the
// benchmarks measure: an allocation regression on these paths is caught
// by the analyzer at vet time, not only by the bench smoke.
var hotpathAsserted = map[string][]string{
	"lbsq.go":    {"NN"},
	"session.go": {"MoveInto", "fillSessionMove"},
	filepath.Join("internal", "session", "session.go"): {
		"MoveInto", "resultInto", "lookup",
	},
	filepath.Join("internal", "insq", "insq.go"): {
		"Covers",
	},
	filepath.Join("internal", "nn", "nn.go"): {
		"KNearestInto", "expand",
	},
	filepath.Join("internal", "tp", "tp.go"): {
		"KNN", "nodeLB",
	},
	filepath.Join("internal", "rtree", "arena", "arena.go"): {
		"SearchAppend", "searchAppend", "Visit", "visitSlab",
	},
	filepath.Join("internal", "qexec", "qexec.go"): {
		"NNCached", "WindowCached",
	},
	filepath.Join("internal", "qexec", "cache.go"): {
		"GetNN", "GetWindow", "lookupNN", "lookupWindow",
		"nnShard", "windowShard", "shardFor", "fnvMix", "cell", "promote",
	},
	filepath.Join("internal", "wal", "wal.go"): {
		"Append", "encodeRecord",
	},
}

// TestHotpathCoverage fails when a benchmark-asserted zero-allocation
// function is missing its //lbsq:hotpath directive (using the same
// predicate the analyzer uses), or when an entry here no longer names
// a function — keeping benchmarks, directives, and this list in sync.
func TestHotpathCoverage(t *testing.T) {
	for file, fns := range hotpathAsserted {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		hot := make(map[string]bool)
		declared := make(map[string]bool)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name.Name] = true
			if hotpath.IsHot(fd) {
				hot[fd.Name.Name] = true
			}
		}
		for _, fn := range fns {
			if !declared[fn] {
				t.Errorf("%s: function %s asserted zero-alloc by a benchmark no longer exists; update hotpathAsserted", file, fn)
				continue
			}
			if !hot[fn] {
				t.Errorf("%s: %s is asserted zero-alloc by a benchmark but lacks the %s directive", file, fn, hotpath.Directive)
			}
		}
	}
}
