// Package seeds is the repository's one seed derivation (DESIGN.md §8):
// every random stream hangs off a base seed through a named edge, the FNV-1a
// hash of the base and a label, so adding or reordering streams never shifts
// another stream's randomness. Ad-hoc arithmetic (seed+6) is forbidden:
// offsets collide the moment two call sites pick the same constant,
// silently correlating streams the evaluation assumes are independent. The
// seedflow analyzer accepts SubSeed as a deriver at every rand.NewSource
// call in its scope.
package seeds

import (
	"encoding/binary"
	"hash/fnv"
)

// SubSeed derives the seed for the named random stream under base: FNV-1a
// over the little-endian base followed by the label bytes.
func SubSeed(base int64, label string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	h.Write([]byte(label))
	return int64(h.Sum64())
}

// SubSeedIndex derives a child seed from a base seed, a label, and an
// integer index (the fleet's per-home edge). The index is hashed as its own
// little-endian word rather than formatted into the label: at fleet scale
// this runs once per home and a fmt.Sprintf per home would dominate setup.
func SubSeedIndex(base int64, label string, index int) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	h.Write([]byte(label))
	binary.LittleEndian.PutUint64(b[:], uint64(index))
	h.Write(b[:])
	return int64(h.Sum64())
}
