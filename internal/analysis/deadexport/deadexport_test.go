package deadexport_test

import (
	"testing"

	"privmem/internal/analysis"
	"privmem/internal/analysis/antest"
	"privmem/internal/analysis/deadexport"
)

// The fixture module holds one export per case: used only by a test file
// (flagged), used only by the second module, an interface-satisfying
// method, a method of a facade-aliased type, an exempt package and an
// allowed declaration (none flagged).
func TestDeadexportFixture(t *testing.T) {
	mod, err := analysis.Load("testdata/mod", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	second, err := analysis.Load("testdata/mod/second", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags := deadexport.Check("example.com/dead", mod, second)
	antest.Expect(t, mod, diags)

	suppressed := 0
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
		}
	}
	if suppressed != 1 {
		t.Errorf("%d suppressed findings, want 1 (Allowed)", suppressed)
	}

	// Without the second module, its only reference is gone.
	alone := deadexport.Check("example.com/dead", mod)
	var names []string
	for _, d := range alone {
		if !d.Suppressed {
			names = append(names, d.Message)
		}
	}
	if len(names) != 4 {
		t.Errorf("without the second module: %d findings, want 4 (OnlySecond joins the three)\n%v", len(names), names)
	}
}
