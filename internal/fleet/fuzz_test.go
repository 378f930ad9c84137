package fleet

import (
	"math"
	"strings"
	"testing"
)

// FuzzFleetConfig feeds arbitrary strings to the fleet mix parser, the one
// piece of a fleet spec that arrives as text. The parser must never panic
// and never allocate proportionally to hostile input (a claimed
// million-part mix must be rejected by the bound, not materialized).
// Accepted mixes must sit inside every documented bound, validate inside a
// Spec, and apportion homes without losing any or going negative.
func FuzzFleetConfig(f *testing.F) {
	f.Add("")
	f.Add("family:1")
	f.Add("family:0.6,retired:0.4")
	f.Add("family:0.5,apartment:0.3,cottage:0.2")
	f.Add("family:1,apartment:1,retired:1,cottage:1")
	f.Add("family:NaN")
	f.Add("family:-1")
	f.Add("family:Inf,apartment:1")
	f.Add("family:0")
	f.Add("family:1e9,apartment:1e9")
	f.Add("family:5e-324,cottage:1")
	f.Add("family:1,family:1")
	f.Add("mansion:1")
	f.Add(":1,family")
	f.Add(strings.Repeat("family:1,", 200))
	f.Add("family:1\x00,retired:1")

	f.Fuzz(func(t *testing.T, s string) {
		mix, err := ParseMix(s)
		if err != nil {
			return // rejected input: any error is fine, panics are not
		}
		if len(mix) == 0 || len(mix) > MaxMixParts {
			t.Fatalf("accepted %d mix parts (1..%d) (input %q)", len(mix), MaxMixParts, s)
		}
		for _, m := range mix {
			if math.IsNaN(m.Weight) || math.IsInf(m.Weight, 0) || m.Weight <= 0 || m.Weight > MaxMixWeight {
				t.Fatalf("accepted mix weight %v (input %q)", m.Weight, s)
			}
		}
		spec := DefaultSpec()
		spec.Mix = mix
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted mix fails validation: %v (input %q)", err, s)
		}
		for _, homes := range []int{1, spec.Homes, MaxHomes} {
			total := 0
			for _, c := range assignCounts(homes, mix) {
				if c < 0 {
					t.Fatalf("assignCounts gave %d homes to a part (input %q)", c, s)
				}
				total += c
			}
			if total != homes {
				t.Fatalf("assignCounts lost homes: %d of %d (input %q)", total, homes, s)
			}
		}
	})
}
