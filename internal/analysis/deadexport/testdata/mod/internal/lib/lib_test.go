package lib

import "testing"

func TestReferencesOnlyHere(t *testing.T) {
	OnlyTests()
	Allowed()
	if OnlyTestsVar != 1 || Named(0).Helper() != 1 {
		t.Fatal("fixture")
	}
}
