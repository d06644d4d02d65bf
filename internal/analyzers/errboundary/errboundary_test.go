package errboundary_test

import (
	"testing"

	"fairdms/internal/analyzers/anzkit/analysistest"
	"fairdms/internal/analyzers/errboundary"
)

// fixtureAnalyzer swaps the repo's sentinel contract for the fixture
// module's, exercising the same code paths over a tiny dependency graph.
var fixtureAnalyzer = errboundary.NewAnalyzer(errboundary.Config{
	Sentinels: []errboundary.Sentinel{
		{PkgSuffix: "fairmod/svc", Name: "ErrMissing", Status: "404 Not Found"},
	},
})

func TestErrBoundary(t *testing.T) {
	analysistest.Run(t, "testdata", fixtureAnalyzer, "fairmod/a")
}

func TestClean(t *testing.T) {
	if diags := analysistest.Run(t, "testdata", fixtureAnalyzer, "fairmod/ok"); len(diags) != 0 {
		t.Fatalf("clean fixture produced diagnostics: %v", diags)
	}
}

// TestBackendMethods checks rule 1 reaches the methods of a Backend
// implementation, where service calls live once handlers only decode and
// delegate.
func TestBackendMethods(t *testing.T) {
	analysistest.Run(t, "testdata", fixtureAnalyzer, "fairmod/backend")
}

func TestBackendClean(t *testing.T) {
	if diags := analysistest.Run(t, "testdata", fixtureAnalyzer, "fairmod/backendok"); len(diags) != 0 {
		t.Fatalf("clean backend fixture produced diagnostics: %v", diags)
	}
}
