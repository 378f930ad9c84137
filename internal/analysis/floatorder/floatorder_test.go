package floatorder_test

import (
	"testing"

	"privmem/internal/analysis/antest"
	"privmem/internal/analysis/floatorder"
)

func TestFloatorderFixture(t *testing.T) {
	// The fixture declares its own Do and For in place of internal/par,
	// since fixtures type-check against the standard library only.
	antest.Run(t, "testdata/src/floatorder", floatorder.New(floatorder.FanOuts{"floatorder": {"Do", "For"}}))
}
