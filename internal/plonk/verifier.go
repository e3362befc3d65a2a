package plonk

import (
	"fmt"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/transcript"
)

// pairingTerms is the deferred pairing statement of one verified proof:
// the proof is valid iff e(L, G2[0]) · e(-W, [τ]G2) == 1. prepare derives
// the terms; Verify checks one statement, Batch folds many into a single
// multi-pairing.
type pairingTerms struct {
	L bn254.G1Affine
	W bn254.G1Affine
}

// lagrangePrefix evaluates L_0(ζ) … L_{len(omega)-1}(ζ) with one batched
// inversion: L_i(ζ) = ω^i · Z_H(ζ) / (N · (ζ - ω^i)).
func lagrangePrefix(omega []fr.Element, n uint64, zeta, zh *fr.Element) []fr.Element {
	dens := make([]fr.Element, len(omega))
	nEl := fr.NewElement(n)
	for i := range omega {
		dens[i].Sub(zeta, &omega[i])
		dens[i].Mul(&dens[i], &nEl)
	}
	fr.BatchInvert(dens)
	out := make([]fr.Element, len(omega))
	for i := range omega {
		out[i].Mul(zh, &omega[i])
		out[i].Mul(&out[i], &dens[i])
	}
	return out
}

// prepare replays the transcript, checks the quotient identity at ζ, and
// reduces the two KZG opening checks to a single pairing statement. It is
// everything Verify does except the pairing itself, so batch verification
// can run it per proof and fold the statements. Like Prove, it serves
// every key shape: a classic key replays no extension labels, evaluates
// only C0–C2 and opens only z at ζω.
func prepare(vk *VerifyingKey, proof *Proof, public []fr.Element) (pairingTerms, error) {
	if len(public) != vk.NbPublic {
		return pairingTerms{}, fmt.Errorf("%w: got %d, want %d", ErrWrongPublic, len(public), vk.NbPublic)
	}
	ev := &proof.Evals
	ex := ev.Ext
	if vk.Extended != (ex != nil) {
		return pairingTerms{}, fmt.Errorf("%w: extended=%v proof, extended=%v key",
			ErrProofShape, ex != nil, vk.Extended)
	}
	extra := quotientPieces(vk.Custom) - 3
	if len(proof.TExtra) != extra || (ex != nil && len(ex.TExtra) != extra) {
		return pairingTerms{}, fmt.Errorf("%w: %d extra quotient pieces, want %d",
			ErrProofShape, len(proof.TExtra), extra)
	}

	// Reconstruct the challenges.
	tr := transcript.New("zkdet/plonk")
	bindTranscript(tr, vk, public)
	ch := newChallenges(vk)
	proof.absorbWires(tr, ch)
	proof.absorbProducts(tr, ch)
	zeta := proof.absorbQuotient(tr)
	v := proof.absorbEvals(tr)
	tr.AppendPoint("w_zeta", &proof.WZeta)
	tr.AppendPoint("w_zeta_omega", &proof.WZetaOmega)
	u := tr.ChallengeScalar("u")

	domain, lagOmega, _, err := vk.verifierCache()
	if err != nil {
		return pairingTerms{}, fmt.Errorf("plonk: %w", err)
	}

	// Z_H(ζ), then L_0(ζ) … L_{ℓ-1}(ζ) in one batched inversion.
	one := fr.One()
	var zetaN fr.Element
	zetaN.ExpUint64(&zeta, vk.N)
	var zh fr.Element
	zh.Sub(&zetaN, &one)
	if zh.IsZero() {
		// ζ landed inside the domain (probability ~ N/r): reject rather
		// than divide by zero.
		return pairingTerms{}, ErrProofInvalid
	}
	lag := lagrangePrefix(lagOmega, vk.N, &zeta, &zh)
	var pi fr.Element
	for i := range public {
		var t fr.Element
		t.Mul(&lag[i], &public[i])
		pi.Sub(&pi, &t)
	}

	// The constraint numerator at ζ — the formula the prover divided by
	// Z_H on the coset.
	pv := pointVals{
		x: zeta,
		a: ev.A, b: ev.B, c: ev.C,
		z: ev.Z, zw: ev.ZOmega,
		ql: ev.QL, qr: ev.QR, qo: ev.QO, qm: ev.QM, qc: ev.QC, pi: pi,
		s1: ev.S1, s2: ev.S2, s3: ev.S3,
		l1: lag[0],
	}
	pieceEvals := []fr.Element{ev.TLo, ev.TMid, ev.THi}
	if ex != nil {
		pv.aw, pv.bw, pv.cw = ex.AOmega, ex.BOmega, ex.COmega
		pv.m, pv.h, pv.s, pv.sw = ex.M, ex.H, ex.S, ex.SOmega
		pv.qlk, pv.tbl = ex.QLk, ex.Tbl
		pv.qmimc, pv.qposf, pv.qposp = ex.QMimc, ex.QPosF, ex.QPosP
		pv.k0, pv.k1c, pv.k2c = ex.K0, ex.K1, ex.K2
		pieceEvals = append(pieceEvals, ex.TExtra...)
	}
	rhs := numerator(&pv, ch)

	// t(ζ) = Σ_p ζ^{p·n}·t_p(ζ).
	var tEval fr.Element
	zetaPow := one
	for p := range pieceEvals {
		var t fr.Element
		t.Mul(&zetaPow, &pieceEvals[p])
		tEval.Add(&tEval, &t)
		zetaPow.Mul(&zetaPow, &zetaN)
	}
	var lhs fr.Element
	lhs.Mul(&tEval, &zh)
	if !lhs.Equal(&rhs) {
		return pairingTerms{}, fmt.Errorf("%w: quotient identity", ErrProofInvalid)
	}

	// Batched KZG check: the commitments opened at ζ and at ζω, in the
	// zetaEvals and omegaEvals folding order, each v-folded.
	cms := []kzg.Commitment{
		proof.A, proof.B, proof.C, proof.Z,
		vk.QL, vk.QR, vk.QO, vk.QM, vk.QC,
		vk.S1, vk.S2, vk.S3,
		proof.TLo, proof.TMid, proof.THi,
	}
	omegaCms := []kzg.Commitment{proof.Z}
	if ex != nil {
		cms = append(cms,
			proof.M, proof.H, proof.S,
			vk.QLk, vk.Tbl, vk.QMimc, vk.QPosF, vk.QPosP,
			vk.KC0, vk.KC1, vk.KC2)
		cms = append(cms, proof.TExtra...)
		omegaCms = append(omegaCms, proof.S, proof.A, proof.B, proof.C)
	}
	vPowers := fr.Powers(&v, len(cms))
	foldVal := innerProduct(vPowers, ev.zetaEvals())
	foldValOmega := innerProduct(vPowers, ev.omegaEvals())

	// Combine the two opening checks with u:
	// e(Fζ + ζ·Wζ + u·(Fζω + ζω·Wζω) - E, G2) · e(-(Wζ + u·Wζω), τG2) == 1
	// where Fζ, Fζω are the v-folds of the commitments opened at ζ and ζω
	// and E = (valζ + u·valζω)·G1. The whole left-hand G1 point is one MSM
	// instead of a chain of serial scalar multiplications.
	g1 := bn254.G1Generator()
	var zetaOmega fr.Element
	zetaOmega.Mul(&zeta, &domain.Gen)
	var uZOmega fr.Element
	uZOmega.Mul(&u, &zetaOmega)
	var eScalar fr.Element
	eScalar.Mul(&u, &foldValOmega)
	eScalar.Add(&eScalar, &foldVal)
	eScalar.Neg(&eScalar)

	pts := make([]bn254.G1Affine, 0, len(cms)+len(omegaCms)+3)
	scs := make([]fr.Element, 0, cap(pts))
	pts = append(pts, cms...)
	scs = append(scs, vPowers...)
	pts = append(pts, proof.WZeta)
	scs = append(scs, zeta)
	for i := range omegaCms {
		var s fr.Element
		s.Mul(&u, &vPowers[i])
		pts = append(pts, omegaCms[i])
		scs = append(scs, s)
	}
	pts = append(pts, proof.WZetaOmega, g1)
	scs = append(scs, uZOmega, eScalar)

	var terms pairingTerms
	L, err := bn254.G1MSM(pts, scs)
	if err != nil {
		return pairingTerms{}, fmt.Errorf("plonk: %w", err)
	}
	terms.L = L

	var wJ bn254.G1Jac
	var tj bn254.G1Jac
	wJ.FromAffine(&proof.WZeta)
	tj.ScalarMul(&proof.WZetaOmega, &u)
	wJ.AddAssign(&tj)
	terms.W.FromJacobian(&wJ)
	return terms, nil
}

// innerProduct returns ∑ a[i]·b[i] over the first len(b) entries of a.
func innerProduct(a, b []fr.Element) fr.Element {
	var acc fr.Element
	for i := range b {
		var t fr.Element
		t.Mul(&a[i], &b[i])
		acc.Add(&acc, &t)
	}
	return acc
}

// Verify checks a proof against the verifying key and public inputs. Its
// cost is one two-pair pairing check (against precomputed G2 line tables
// cached on the verifying key) plus a handful of scalar multiplications —
// independent of the circuit size except for the O(ℓ) public-input
// Lagrange terms, which share a single batched inversion.
func Verify(vk *VerifyingKey, proof *Proof, public []fr.Element) error {
	terms, err := prepare(vk, proof, public)
	if err != nil {
		return err
	}
	_, _, lines, err := vk.verifierCache()
	if err != nil {
		return fmt.Errorf("plonk: %w", err)
	}
	var negW bn254.G1Affine
	negW.Neg(&terms.W)
	ok, err := bn254.PairingCheckPrecomp(
		[]bn254.G1Affine{terms.L, negW},
		lines[:],
	)
	if err != nil {
		return fmt.Errorf("plonk: %w", err)
	}
	if !ok {
		return fmt.Errorf("%w: pairing check", ErrProofInvalid)
	}
	return nil
}
