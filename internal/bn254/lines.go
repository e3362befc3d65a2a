package bn254

// Sparse Miller-loop machinery. The naive reference pairing (test-only, in
// pairing_naive_test.go) untwists G2 points into E(Fp12) and works with
// full Fp12 arithmetic everywhere. This file exploits the structure that untwisting creates: with
// ψ(x', y') = (x'·w², y'·w³), every intermediate point T in the Miller loop
// keeps its x-coordinate at w² and its y-coordinate at w³, the slope λ sits
// at w¹, and the evaluated line
//
//	l(P) = yP - y_T - λ(xP - x_T)
//	     = yP + (-λ'·xP)·w + (λ'·x'_T - y'_T)·w³
//
// has nonzero coefficients only at w⁰ (an Fp value), w¹ and w³ (Fp2 values).
// Vertical lines l(P) = xP - x_T occupy only w⁰ and w². The w-coefficients
// λ' and μ' = λ'·x'_T - y'_T live entirely in Fp2, so the whole loop needs
// no Fp12 inversions, and the accumulator update becomes a dedicated sparse
// multiplication (mulBy013 / mulBy02) instead of a full 54-mul Fp12 multiply.
// This is the same idea as gnark-crypto's MulBy034 kernel; the positions
// differ because of this tower's untwist layout.
//
// Because every step computes the exact same field values as the naive
// affine loop (the group law and line values are order-independent modular
// arithmetic, and all representations are canonical), the sparse and
// precomputed paths are bit-identical to the naive ones — a property pinned
// by tests in pairing_sparse_test.go.

// stepKind discriminates the three shapes a Miller-loop line can take.
type stepKind uint8

const (
	// stepOne is the identity line (point at infinity was involved).
	stepOne stepKind = iota
	// stepLine is a tangent or chord: l = yP + (-λ'xP)·w + μ'·w³.
	stepLine
	// stepVertical is a vertical line: l = xP + (-x'_T)·w².
	stepVertical
)

// lineStep is one P-independent precomputed Miller-loop line.
// For stepLine, lambda is the Fp2 slope λ' and mu is λ'·x_T - y_T.
// For stepVertical, mu is -x_T (lambda is unused).
type lineStep struct {
	kind   stepKind
	lambda Fp2
	mu     Fp2
}

// G2LinePrecomp caches every doubling/addition line coefficient of the
// optimal ate Miller loop for one fixed G2 point, including the two
// Frobenius correction lines. Verifiers pair against fixed G2 elements
// (the SRS points [1]G2 and [τ]G2), so after one precomputation every
// subsequent pairing skips all G2 arithmetic: each step costs one sparse
// Fp12 multiply plus two Fp scalings.
type G2LinePrecomp struct {
	inf   bool
	steps []lineStep
}

// rawStep records a schedule step before the slopes are materialised:
// the Jacobian snapshot of T ahead of the step, and for chords the
// affine point being added.
type rawStep struct {
	kind    stepKind
	tangent bool // stepLine only: tangent (λ=3x²/2y) vs chord
	t       G2Jac
	q       G2Affine // chord only
}

// fp2BatchInverse inverts all non-zero entries in place with a single
// Fp2 inversion (Montgomery's trick). Zero entries are left as zero.
func fp2BatchInverse(xs []Fp2) {
	n := len(xs)
	if n == 0 {
		return
	}
	prefix := make([]Fp2, n)
	acc := fp2One()
	for i := range xs {
		prefix[i] = acc
		if !xs[i].IsZero() {
			acc.Mul(&acc, &xs[i])
		}
	}
	var accInv Fp2
	accInv.Inverse(&acc)
	for i := n - 1; i >= 0; i-- {
		if xs[i].IsZero() {
			continue
		}
		var inv Fp2
		inv.Mul(&accInv, &prefix[i])
		accInv.Mul(&accInv, &xs[i])
		xs[i] = inv
	}
}

// frobTwist applies the p-power Frobenius to a point through the untwist:
// the untwisted x sits at w² and y at w³, so on twist coordinates
// x → conj(x)·c², y → conj(y)·c³ with c = ξ^((p-1)/6).
func frobTwist(q *G2Affine) G2Affine {
	if q.IsInfinity() {
		return G2Affine{}
	}
	cs := frobOnce()
	var out G2Affine
	out.X.Conjugate(&q.X)
	out.X.Mul(&out.X, &cs[2])
	out.Y.Conjugate(&q.Y)
	out.Y.Mul(&out.Y, &cs[3])
	return out
}

// jacXEqual reports whether the affine x-coordinate of t equals q.X,
// via cross-multiplication (x_aff = X/Z², so x_aff == q.X ⇔ X == q.X·Z²).
func jacXEqual(t *G2Jac, q *G2Affine) bool {
	var z2, rhs Fp2
	z2.Square(&t.Z)
	rhs.Mul(&q.X, &z2)
	return t.X.Equal(&rhs)
}

// jacYEqual reports whether the affine y-coordinate of t equals q.Y.
func jacYEqual(t *G2Jac, q *G2Affine) bool {
	var z3, rhs Fp2
	z3.Square(&t.Z)
	z3.Mul(&z3, &t.Z)
	rhs.Mul(&q.Y, &z3)
	return t.Y.Equal(&rhs)
}

// doubleRaw records the line through T,T and sets t = 2t, mirroring the
// branch structure of the naive lineDouble exactly.
func doubleRaw(t *G2Jac) rawStep {
	if t.IsInfinity() {
		return rawStep{kind: stepOne}
	}
	if t.Y.IsZero() {
		// Vertical tangent; T goes to infinity.
		st := rawStep{kind: stepVertical, t: *t}
		t.SetInfinity()
		return st
	}
	st := rawStep{kind: stepLine, tangent: true, t: *t}
	t.Double(t)
	return st
}

// addRaw records the line through T,Q and sets t = t + q, mirroring the
// branch structure of the naive lineAdd exactly.
func addRaw(t *G2Jac, q *G2Affine) rawStep {
	if q.IsInfinity() {
		return rawStep{kind: stepOne}
	}
	if t.IsInfinity() {
		t.FromAffine(q)
		return rawStep{kind: stepOne}
	}
	if jacXEqual(t, q) {
		if jacYEqual(t, q) {
			return doubleRaw(t)
		}
		// T and Q are negatives: vertical line, T + Q = infinity.
		st := rawStep{kind: stepVertical, t: *t}
		t.SetInfinity()
		return st
	}
	st := rawStep{kind: stepLine, t: *t, q: *q}
	var jq G2Jac
	jq.FromAffine(q)
	t.AddAssign(&jq)
	return st
}

// NewG2LinePrecomp walks the optimal ate Miller loop for q once and caches
// every line's Fp2 coefficients. The walk runs in Jacobian coordinates and
// the slopes are recovered with two batch inversions, so building a table
// costs only a couple of field inversions total.
func NewG2LinePrecomp(q *G2Affine) *G2LinePrecomp {
	if q.IsInfinity() {
		return &G2LinePrecomp{inf: true}
	}

	// Phase A: walk the fixed schedule, recording branch decisions and
	// Jacobian snapshots of T before each step.
	var t G2Jac
	t.FromAffine(q)
	s := loopCounter()
	raws := make([]rawStep, 0, s.BitLen()+16)
	for i := s.BitLen() - 2; i >= 0; i-- {
		raws = append(raws, doubleRaw(&t))
		if s.Bit(i) == 1 {
			raws = append(raws, addRaw(&t, q))
		}
	}
	q1 := frobTwist(q)
	q2 := frobTwist(&q1)
	q2.Neg(&q2)
	raws = append(raws, addRaw(&t, &q1))
	raws = append(raws, addRaw(&t, &q2))

	// Phase B1: batch-normalise every snapshot to affine coordinates.
	zs := make([]Fp2, len(raws))
	for i := range raws {
		if raws[i].kind != stepOne {
			zs[i] = raws[i].t.Z
		}
	}
	fp2BatchInverse(zs)
	type affineT struct{ x, y Fp2 }
	affs := make([]affineT, len(raws))
	for i := range raws {
		if raws[i].kind == stepOne {
			continue
		}
		var z2, z3 Fp2
		z2.Square(&zs[i])
		z3.Mul(&z2, &zs[i])
		affs[i].x.Mul(&raws[i].t.X, &z2)
		affs[i].y.Mul(&raws[i].t.Y, &z3)
	}

	// Phase B2: batch-invert the slope denominators (2y for tangents,
	// x_Q - x_T for chords), then materialise λ' and μ'.
	dens := make([]Fp2, len(raws))
	for i := range raws {
		if raws[i].kind != stepLine {
			continue
		}
		if raws[i].tangent {
			dens[i].Double(&affs[i].y)
		} else {
			dens[i].Sub(&raws[i].q.X, &affs[i].x)
		}
	}
	fp2BatchInverse(dens)

	steps := make([]lineStep, len(raws))
	three := NewFp(3)
	for i := range raws {
		switch raws[i].kind {
		case stepOne:
			steps[i] = lineStep{kind: stepOne}
		case stepVertical:
			steps[i].kind = stepVertical
			steps[i].mu.Neg(&affs[i].x)
		case stepLine:
			steps[i].kind = stepLine
			var num Fp2
			if raws[i].tangent {
				num.Square(&affs[i].x)
				num.MulByFp(&num, &three)
			} else {
				num.Sub(&raws[i].q.Y, &affs[i].y)
			}
			steps[i].lambda.Mul(&num, &dens[i])
			steps[i].mu.Mul(&steps[i].lambda, &affs[i].x)
			steps[i].mu.Sub(&steps[i].mu, &affs[i].y)
		}
	}
	return &G2LinePrecomp{steps: steps}
}

// g1Eval holds the per-pairing G1 values a line evaluation needs.
type g1Eval struct {
	xP, yP, negXP Fp
}

func newG1Eval(p *G1Affine) g1Eval {
	var e g1Eval
	e.xP.Set(&p.X)
	e.yP.Set(&p.Y)
	e.negXP.Neg(&p.X)
	return e
}

// mulByLine folds one evaluated line into the Miller accumulator.
func mulByLine(f *Fp12, st *lineStep, e *g1Eval) {
	switch st.kind {
	case stepOne:
		// line == 1
	case stepLine:
		var c1 Fp2
		c1.MulByFp(&st.lambda, &e.negXP)
		f.mulBy013(&e.yP, &c1, &st.mu)
	case stepVertical:
		f.mulBy02(&e.xP, &st.mu)
	}
}

// fp6MulBy01 sets z = x · (d0 + d1·v), a sparse Fp6 multiplication
// (5 Fp2 multiplies instead of 6, Karatsuba on the low limbs).
func (z *Fp6) fp6MulBy01(x *Fp6, d0, d1 *Fp2) *Fp6 {
	var v00, v11, t, r0, r1, r2 Fp2
	v00.Mul(&x.B0, d0)
	v11.Mul(&x.B1, d1)
	// r0 = b0d0 + ξ·b2d1
	r0.Mul(&x.B2, d1)
	r0.MulByNonResidue(&r0)
	r0.Add(&r0, &v00)
	// r1 = (b0+b1)(d0+d1) - v00 - v11
	r1.Add(&x.B0, &x.B1)
	t.Add(d0, d1)
	r1.Mul(&r1, &t)
	r1.Sub(&r1, &v00)
	r1.Sub(&r1, &v11)
	// r2 = b1d1 + b2d0
	r2.Mul(&x.B2, d0)
	r2.Add(&r2, &v11)
	z.B0 = r0
	z.B1 = r1
	z.B2 = r2
	return z
}

// mulBy013 sets z = z · (c0 + c1·w + c3·w³) for c0 ∈ Fp and c1, c3 ∈ Fp2 —
// the shape of a tangent/chord line under this tower's untwist. In the
// Fp6[w] view the multiplier is L0 + L1·w with L0 = (c0, 0, 0) and
// L1 = (c1, c3, 0), so:
//
//	z.C0 = Z0·c0 + v·(Z1·L1)
//	z.C1 = Z0·L1 + Z1·c0
//
// costing ~42 Fp multiplies versus 54 for a generic Fp12 multiply.
func (z *Fp12) mulBy013(c0 *Fp, c1, c3 *Fp2) *Fp12 {
	var t0, t1, t2, t3 Fp6
	t0.B0.MulByFp(&z.C0.B0, c0)
	t0.B1.MulByFp(&z.C0.B1, c0)
	t0.B2.MulByFp(&z.C0.B2, c0)
	t1.fp6MulBy01(&z.C1, c1, c3)
	t1.MulByV(&t1)
	t2.fp6MulBy01(&z.C0, c1, c3)
	t3.B0.MulByFp(&z.C1.B0, c0)
	t3.B1.MulByFp(&z.C1.B1, c0)
	t3.B2.MulByFp(&z.C1.B2, c0)
	z.C0.Add(&t0, &t1)
	z.C1.Add(&t2, &t3)
	return z
}

// mulBy02 sets z = z · (c0 + c2·w²) for c0 ∈ Fp and c2 ∈ Fp2 — the shape
// of a vertical line. The multiplier lives entirely in the even part:
// L0 = (c0, c2, 0), L1 = 0, so both halves of z are scaled by L0.
func (z *Fp12) mulBy02(c0 *Fp, c2 *Fp2) *Fp12 {
	d0 := Fp2{A0: *c0}
	z.C0.fp6MulBy01(&z.C0, &d0, c2)
	z.C1.fp6MulBy01(&z.C1, &d0, c2)
	return z
}

// millerLoopPrecomp evaluates the shared Miller loop over any number of
// (G1, precomputed-line) pairs, squaring the accumulator once per bit for
// all pairs together. Pairs involving infinity contribute the identity and
// are skipped. The result equals the product of the individual naive
// Miller-loop values bit-for-bit.
func millerLoopPrecomp(ps []G1Affine, pcs []*G2LinePrecomp) Fp12 {
	evals := make([]g1Eval, 0, len(ps))
	tables := make([]*G2LinePrecomp, 0, len(pcs))
	for i := range ps {
		if ps[i].IsInfinity() || pcs[i].inf {
			continue
		}
		evals = append(evals, newG1Eval(&ps[i]))
		tables = append(tables, pcs[i])
	}
	f := fp12One()
	if len(tables) == 0 {
		return f
	}
	s := loopCounter()
	idx := 0
	for i := s.BitLen() - 2; i >= 0; i-- {
		f.Square(&f)
		for j := range tables {
			mulByLine(&f, &tables[j].steps[idx], &evals[j])
		}
		idx++
		if s.Bit(i) == 1 {
			for j := range tables {
				mulByLine(&f, &tables[j].steps[idx], &evals[j])
			}
			idx++
		}
	}
	// Frobenius correction lines.
	for k := 0; k < 2; k++ {
		for j := range tables {
			mulByLine(&f, &tables[j].steps[idx], &evals[j])
		}
		idx++
	}
	return f
}
