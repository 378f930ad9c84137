package gateway

import (
	"math"
	"slices"
	"testing"
	"time"

	"privmem/internal/attack/fingerprint"
	"privmem/internal/defense/stp"
	"privmem/internal/nettrace"
)

// reverseTies returns a copy of cap with every group of records that share
// a timestamp reversed, and how many groups that reordered.
func reverseTies(cap *nettrace.Capture) (*nettrace.Capture, int) {
	out := *cap
	out.Records = slices.Clone(cap.Records)
	reordered := 0
	for i := 0; i < len(out.Records); {
		j := i + 1
		for j < len(out.Records) && out.Records[j].Time.Equal(out.Records[i].Time) {
			j++
		}
		slices.Reverse(out.Records[i:j])
		if !slices.Equal(out.Records[i:j], cap.Records[i:j]) {
			reordered++
		}
		i = j
	}
	return &out, reordered
}

// tieOrderCaptures simulates t9's three captures at one seed: the lab and
// the clean victim (benign) and the victim with a camera exfiltrating, a
// plug scanning and a bulb in a botnet from hour 30.
func tieOrderCaptures(t *testing.T, seed int64) (lab, victim, compromised *nettrace.Capture) {
	t.Helper()
	var err error
	if lab, err = nettrace.SimulateLab(seed + 1); err != nil {
		t.Fatal(err)
	}
	victim = cleanCapture(t, seed+2, 3)
	cfg := nettrace.DefaultConfig(seed + 4)
	cfg.Days = 3
	at := cfg.Start.Add(30 * time.Hour)
	cfg.Compromises = []nettrace.Compromise{
		{Device: "camera-02", At: at, Kind: nettrace.CompromiseExfil},
		{Device: "smart-plug-03", At: at, Kind: nettrace.CompromiseScan},
		{Device: "bulb-05", At: at, Kind: nettrace.CompromiseBot},
	}
	if compromised, err = nettrace.Simulate(cfg); err != nil {
		t.Fatal(err)
	}
	return lab, victim, compromised
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestReadersIgnoreTieOrder: Simulate fixes the order of records with
// equal timestamps (generation order), but no reader of a capture may
// depend on it. Reversing every tie group must leave the shaper's capture
// and report, the monitor's alerts, the occupancy attack's series and the
// padder's capture and report bit-identical.
func TestReadersIgnoreTieOrder(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		lab, victim, compromised := tieOrderCaptures(t, seed)
		rev := map[*nettrace.Capture]*nettrace.Capture{}
		for name, c := range map[string]*nettrace.Capture{"lab": lab, "victim": victim, "compromised": compromised} {
			r, n := reverseTies(c)
			if n == 0 {
				t.Fatalf("seed %d %s: no tie group reordered; the law is untested", seed, name)
			}
			rev[c] = r
		}

		for _, c := range []*nettrace.Capture{victim, compromised} {
			for _, uniform := range []bool{false, true} {
				cfg := DefaultShapeConfig()
				cfg.Uniform = uniform
				a, ra, err := Shape(c, cfg)
				if err != nil {
					t.Fatal(err)
				}
				b, rb, err := Shape(rev[c], cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(a.Records, b.Records) {
					t.Errorf("seed %d: Shape(uniform=%v) capture depends on tie order", seed, uniform)
				}
				if !sameFloat(ra.PaddingOverhead, rb.PaddingOverhead) || !sameFloat(ra.UndrainedBytes, rb.UndrainedBytes) ||
					ra.MeanDelay != rb.MeanDelay || ra.MaxQueueDelay != rb.MaxQueueDelay ||
					ra.BackloggedIntervals != rb.BackloggedIntervals {
					t.Errorf("seed %d: Shape(uniform=%v) report %+v != %+v", seed, uniform, *ra, *rb)
				}
			}

			oa, err := fingerprint.InferOccupancy(c, fingerprint.DefaultOccupancyConfig())
			if err != nil {
				t.Fatal(err)
			}
			ob, err := fingerprint.InferOccupancy(rev[c], fingerprint.DefaultOccupancyConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(oa.Values, ob.Values, sameFloat) {
				t.Errorf("seed %d: InferOccupancy depends on tie order", seed)
			}
		}

		scan := func(clean, c *nettrace.Capture) []Alert {
			mon, err := LearnProfiles(clean, DefaultMonitorConfig())
			if err != nil {
				t.Fatal(err)
			}
			alerts, err := mon.Scan(c)
			if err != nil {
				t.Fatal(err)
			}
			return alerts
		}
		aa, ab := scan(victim, compromised), scan(rev[victim], rev[compromised])
		if len(aa) == 0 {
			t.Fatalf("seed %d: no alerts; the law is untested", seed)
		}
		if !slices.EqualFunc(aa, ab, func(x, y Alert) bool {
			return x.Device == y.Device && x.At.Equal(y.At) && sameFloat(x.Score, y.Score) && slices.Equal(x.Reasons, y.Reasons)
		}) {
			t.Errorf("seed %d: alerts depend on tie order:\n%+v\n%+v", seed, aa, ab)
		}

		// The padder only ever pads benign captures.
		for _, c := range []*nettrace.Capture{lab, victim} {
			pa, ra, err := stp.Pad(c, stp.DefaultConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			pb, rb, err := stp.Pad(rev[c], stp.DefaultConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(pa.Records, pb.Records) {
				t.Errorf("seed %d: stp.Pad capture depends on tie order", seed)
			}
			if !sameFloat(ra.PaddingOverhead, rb.PaddingOverhead) || ra.ActiveEpochs != rb.ActiveEpochs ||
				ra.CoverEpochs != rb.CoverEpochs || ra.TotalDeviceEpochs != rb.TotalDeviceEpochs ||
				ra.InjectedFlows != rb.InjectedFlows {
				t.Errorf("seed %d: stp.Pad report %+v != %+v", seed, *ra, *rb)
			}
		}
	}
}
