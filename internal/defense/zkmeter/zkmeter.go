// Package zkmeter implements the cryptographic privacy-preserving smart
// meter of §III-C ([29], [30]): the meter keeps fine-grained readings local
// and publishes only Pedersen commitments; billing queries are answered with
// verifiable openings of homomorphically-combined commitments, so the
// utility can confirm the monthly bill without ever seeing the raw usage
// data that NIOM/NILM analytics would need.
//
// The construction is the classic Pedersen scheme over the quadratic-residue
// subgroup of Z_p* for a safe prime p: Commit(x, r) = g^x h^r mod p, which
// is perfectly hiding, computationally binding (under discrete log), and
// additively homomorphic: the product of interval commitments commits to the
// total energy. A Fiat-Shamir Schnorr proof lets the meter prove knowledge
// of an opening without revealing it.
package zkmeter

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"

	"privmem/internal/meter"
	"privmem/internal/par"
)

// ErrVerify indicates a commitment or proof that failed verification.
var ErrVerify = errors.New("zkmeter: verification failed")

// ErrBadInput indicates malformed inputs.
var ErrBadInput = errors.New("zkmeter: invalid input")

// safePrimeHex is a 1024-bit safe prime p = 2q+1 (q prime), generated once
// for this artifact; TestGroupParameters re-verifies both primality claims.
// A production deployment would use a 2048-bit-or-larger group.
const safePrimeHex = "cabfde866d60351fa424ec4a1f96d4c4b65f3934a752bad4e9cb5d22578c41360d0eb499db14436f30b852b6b96cf09522341cd3803678ee6091a6064231ff1771d33bd272eff431a89844a3b6e9a1c236c0468eda33bc262a76caab56675ab6754f9ce849f645a714340de367603c2ed507d5cc7e1795bc98cc431deaee0f7f"

// Group holds the Pedersen group parameters.
type Group struct {
	// P is the safe prime modulus; Q = (P-1)/2 is the subgroup order.
	P, Q *big.Int
	// G and H generate the order-Q subgroup with unknown discrete-log
	// relation (H is derived by hashing into the group).
	G, H *big.Int
}

// NewGroup returns the standard group used by the committed meter.
func NewGroup() *Group {
	p, ok := new(big.Int).SetString(safePrimeHex, 16)
	if !ok {
		panic("zkmeter: corrupt group constant")
	}
	q := new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(1)), 1)
	// g = 4 = 2^2 is a quadratic residue, hence generates the order-q
	// subgroup of a safe-prime group.
	g := big.NewInt(4)
	// h: nothing-up-my-sleeve hash-to-group: square the hash to land in QR.
	seed := sha256.Sum256([]byte("privmem zkmeter generator h v1"))
	h := new(big.Int).SetBytes(seed[:])
	h.Mod(h, p)
	h.Mul(h, h)
	h.Mod(h, p)
	return &Group{P: p, Q: q, G: g, H: h}
}

// Commitment is a Pedersen commitment to one interval reading.
type Commitment struct {
	// C is g^x h^r mod p.
	C *big.Int
}

// Opening reveals a committed value and its blinding.
type Opening struct {
	// X is the committed value (watt-hours), R the blinding factor.
	X, R *big.Int
}

// Commit commits to value x (non-negative watt-hours) with fresh randomness
// from rng (pass crypto/rand.Reader in production; tests may use a
// deterministic reader).
func (g *Group) Commit(x int64, rng io.Reader) (Commitment, Opening, error) {
	o, err := g.open(x, rng)
	if err != nil {
		return Commitment{}, Opening{}, err
	}
	return Commitment{C: g.commitRaw(o.X, o.R)}, o, nil
}

// open validates x and draws its blinding factor from rng.
func (g *Group) open(x int64, rng io.Reader) (Opening, error) {
	if x < 0 {
		return Opening{}, fmt.Errorf("%w: negative reading %d", ErrBadInput, x)
	}
	r, err := rand.Int(rng, g.Q)
	if err != nil {
		return Opening{}, fmt.Errorf("zkmeter commit: %w", err)
	}
	return Opening{X: big.NewInt(x), R: r}, nil
}

func (g *Group) commitRaw(x, r *big.Int) *big.Int {
	gx := new(big.Int).Exp(g.G, x, g.P)
	hr := new(big.Int).Exp(g.H, r, g.P)
	return gx.Mul(gx, hr).Mod(gx, g.P)
}

// Verify checks that the opening matches the commitment.
func (g *Group) Verify(c Commitment, o Opening) error {
	if c.C == nil || o.X == nil || o.R == nil {
		return fmt.Errorf("%w: nil commitment or opening", ErrBadInput)
	}
	if g.commitRaw(o.X, o.R).Cmp(c.C) != 0 {
		return fmt.Errorf("%w: opening does not match commitment", ErrVerify)
	}
	return nil
}

// Combine multiplies commitments, yielding a commitment to the sum of the
// committed values (with blinding equal to the sum of blindings mod Q).
func (g *Group) Combine(cs []Commitment) (Commitment, error) {
	if len(cs) == 0 {
		return Commitment{}, fmt.Errorf("%w: no commitments", ErrBadInput)
	}
	acc := big.NewInt(1)
	for i, c := range cs {
		if c.C == nil {
			return Commitment{}, fmt.Errorf("%w: nil commitment %d", ErrBadInput, i)
		}
		acc.Mul(acc, c.C)
		acc.Mod(acc, g.P)
	}
	return Commitment{C: acc}, nil
}

// CombineOpenings sums openings to match Combine.
func (g *Group) CombineOpenings(os []Opening) (Opening, error) {
	if len(os) == 0 {
		return Opening{}, fmt.Errorf("%w: no openings", ErrBadInput)
	}
	x := new(big.Int)
	r := new(big.Int)
	for _, o := range os {
		x.Add(x, o.X)
		r.Add(r, o.R)
	}
	r.Mod(r, g.Q)
	return Opening{X: x, R: r}, nil
}

// Proof is a Fiat-Shamir Schnorr proof of knowledge of a commitment opening.
type Proof struct {
	// A is the prover's commitment g^u h^v; Sx and Sr are the responses.
	A, Sx, Sr *big.Int
}

// Prove produces a non-interactive proof of knowledge of (x, r) for c,
// bound to the given context string.
func (g *Group) Prove(c Commitment, o Opening, context string, rng io.Reader) (Proof, error) {
	if err := g.Verify(c, o); err != nil {
		return Proof{}, fmt.Errorf("prove: %w", err)
	}
	u, err := rand.Int(rng, g.Q)
	if err != nil {
		return Proof{}, fmt.Errorf("prove: %w", err)
	}
	v, err := rand.Int(rng, g.Q)
	if err != nil {
		return Proof{}, fmt.Errorf("prove: %w", err)
	}
	a := g.commitRaw(u, v)
	e := g.challenge(c.C, a, context)
	sx := new(big.Int).Mul(e, o.X)
	sx.Add(sx, u)
	sx.Mod(sx, g.Q)
	sr := new(big.Int).Mul(e, o.R)
	sr.Add(sr, v)
	sr.Mod(sr, g.Q)
	return Proof{A: a, Sx: sx, Sr: sr}, nil
}

// VerifyProof checks a Schnorr opening proof against the commitment and
// context.
func (g *Group) VerifyProof(c Commitment, p Proof, context string) error {
	if c.C == nil || p.A == nil || p.Sx == nil || p.Sr == nil {
		return fmt.Errorf("%w: nil proof element", ErrBadInput)
	}
	e := g.challenge(c.C, p.A, context)
	lhs := g.commitRaw(p.Sx, p.Sr)
	rhs := new(big.Int).Exp(c.C, e, g.P)
	rhs.Mul(rhs, p.A)
	rhs.Mod(rhs, g.P)
	if lhs.Cmp(rhs) != 0 {
		return fmt.Errorf("%w: schnorr equation", ErrVerify)
	}
	return nil
}

// challenge derives the Fiat-Shamir challenge.
func (g *Group) challenge(c, a *big.Int, context string) *big.Int {
	h := sha256.New()
	h.Write([]byte("privmem zkmeter schnorr v1|"))
	h.Write([]byte(context))
	h.Write([]byte("|"))
	h.Write(c.Bytes())
	h.Write([]byte("|"))
	h.Write(a.Bytes())
	e := new(big.Int).SetBytes(h.Sum(nil))
	return e.Mod(e, g.Q)
}

// Meter is the privacy-preserving meter: it holds raw readings locally and
// exposes only commitments.
type Meter struct {
	group    *Group
	rng      io.Reader
	readings []meter.Reading
	openings []Opening
	// Published is the commitment stream the utility sees.
	Published []Commitment
}

// NewMeter wraps a group and randomness source.
func NewMeter(g *Group, rng io.Reader) *Meter {
	return &Meter{group: g, rng: rng}
}

// Record commits a new interval reading and appends it to the published
// stream.
func (m *Meter) Record(r meter.Reading) error {
	return m.RecordAll([]meter.Reading{r})
}

// RecordAll commits readings in order and appends them to the published
// stream; on error nothing is appended. The blinding factors are drawn from
// the meter's randomness source serially, in reading order, so the result
// equals recording one reading at a time; only the modular
// exponentiations, which dominate the cost, run concurrently.
func (m *Meter) RecordAll(rs []meter.Reading) error {
	openings := make([]Opening, len(rs))
	for i, r := range rs {
		o, err := m.group.open(r.WattHours, m.rng)
		if err != nil {
			return fmt.Errorf("meter record: %w", err)
		}
		openings[i] = o
	}
	commits := make([]Commitment, len(rs))
	_ = par.For(len(rs), func(i int) error {
		commits[i] = Commitment{C: m.group.commitRaw(openings[i].X, openings[i].R)}
		return nil
	})
	m.readings = append(m.readings, rs...)
	m.openings = append(m.openings, openings...)
	m.Published = append(m.Published, commits...)
	return nil
}

// BillingResponse answers a total-usage query over interval indexes
// [from, to): the total watt-hours, the combined opening, and a proof of
// knowledge.
type BillingResponse struct {
	// TotalWattHours is the claimed total energy.
	TotalWattHours int64
	// Opening opens the combined commitment to the total.
	Opening Opening
	// Proof is a Schnorr proof of knowledge of the opening.
	Proof Proof
}

// Bill produces the billing response for readings [from, to).
func (m *Meter) Bill(from, to int, context string) (BillingResponse, error) {
	if from < 0 || to > len(m.openings) || from >= to {
		return BillingResponse{}, fmt.Errorf("%w: bill range [%d, %d) of %d",
			ErrBadInput, from, to, len(m.openings))
	}
	combined, err := m.group.CombineOpenings(m.openings[from:to])
	if err != nil {
		return BillingResponse{}, fmt.Errorf("bill: %w", err)
	}
	cc, err := m.group.Combine(m.Published[from:to])
	if err != nil {
		return BillingResponse{}, fmt.Errorf("bill: %w", err)
	}
	proof, err := m.group.Prove(cc, combined, context, m.rng)
	if err != nil {
		return BillingResponse{}, fmt.Errorf("bill: %w", err)
	}
	return BillingResponse{
		TotalWattHours: combined.X.Int64(),
		Opening:        combined,
		Proof:          proof,
	}, nil
}

// VerifyBill is the utility side: it recombines the published commitments
// for the period and checks the claimed total, the opening, and the proof.
func VerifyBill(g *Group, published []Commitment, resp BillingResponse, context string) error {
	cc, err := g.Combine(published)
	if err != nil {
		return fmt.Errorf("verify bill: %w", err)
	}
	if resp.Opening.X == nil || resp.Opening.X.Int64() != resp.TotalWattHours {
		return fmt.Errorf("%w: claimed total does not match opening", ErrVerify)
	}
	if err := g.Verify(cc, resp.Opening); err != nil {
		return fmt.Errorf("verify bill: %w", err)
	}
	if err := g.VerifyProof(cc, resp.Proof, context); err != nil {
		return fmt.Errorf("verify bill: %w", err)
	}
	return nil
}
