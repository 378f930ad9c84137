// Package lib declares one export per deadexport case.
package lib

// Used has a non-test reference in the facade.
func Used() {}

func OnlyTests() {} // want `exported func lib\.OnlyTests has no non-test reference`

var OnlyTestsVar = 1 // want `exported var lib\.OnlyTestsVar has no non-test reference`

// OnlySecond is referenced only by the second module.
func OnlySecond() {}

// Thing's methods are reachable through the facade alias.
type Thing struct{}

func (Thing) Public() {}

// Named's String method satisfies fmt.Stringer; Helper satisfies nothing.
type Named int

func (Named) String() string { return "named" }

func (Named) Helper() int { return 1 } // want `exported method \(lib\.Named\)\.Helper has no non-test reference`

//lint:allow deadexport the oracle of a fixture law
func Allowed() {}
