package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestHotPathGolden(t *testing.T) {
	runGolden(t, NewHotPath(), "hotpath", "reptile/internal/lint/testdata/hotpath")
}

// TestHotPathFollowsCallsAcrossPackages proves the worklist crosses package
// boundaries: the only annotation lives in caller, the only allocation in
// leaf, and the diagnostic lands in leaf naming caller's root.
func TestHotPathFollowsCallsAcrossPackages(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, []string{"./internal/lint/testdata/hotpath_xpkg/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages from testdata/hotpath_xpkg, want caller and leaf", len(pkgs))
	}

	diags := Run(pkgs, []Analyzer{NewHotPath()})
	if len(diags) != 1 {
		t.Fatalf("expected exactly 1 diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if base := filepath.Base(filepath.Dir(d.Pos.Filename)); base != "leaf" {
		t.Errorf("diagnostic landed in %q, want package leaf: %s", base, d)
	}
	if !strings.Contains(d.Message, "make in a loop") {
		t.Errorf("diagnostic does not name the allocation: %s", d)
	}
	if !strings.Contains(d.Message, "hot path of caller.Drive") {
		t.Errorf("diagnostic does not name the annotated root: %s", d)
	}
}
