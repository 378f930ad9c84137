// Package invariant is exempt by name: law libraries exist for tests.
package invariant

// Law has no reference at all.
func Law() bool { return true }
