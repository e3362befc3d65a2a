package plonk

import (
	"fmt"

	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/parallel"
	"github.com/zkdet/zkdet/internal/poly"
	"github.com/zkdet/zkdet/internal/transcript"
)

// randScalar produces the prover's blinding scalars. It is a variable so
// the bit-identity property tests can pin proofs by injecting a seeded
// source; production code never reassigns it.
var randScalar = fr.MustRandom

// commitParallel runs independent KZG commitments concurrently, writing
// each result through its output pointer. The fan-out is bounded by the
// repo-wide worker pool (GOMAXPROCS) like every other prover hot loop, so
// a large batch of polynomials can't spawn an unbounded goroutine herd.
func commitParallel(srs *kzg.SRS, ps []poly.Polynomial, outs []*kzg.Commitment) error {
	errs := make([]error, len(ps))
	parallel.Execute(len(ps), func(start, end int) {
		for i := start; i < end; i++ {
			c, err := kzg.Commit(srs, ps[i])
			if err != nil {
				errs[i] = err
				continue
			}
			*outs[i] = c
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Proof is a Plonk proof: 9 G1 points and the openings of every committed
// polynomial at the challenge ζ (plus z at ζω). Its size is independent of
// the circuit. Proofs for lookup/custom-gate circuits additionally carry
// the three LogUp polynomials M (multiplicities), H (per-row log-derivative
// helper) and S (running sum), plus up to three extra quotient pieces.
type Proof struct {
	A, B, C           kzg.Commitment
	Z                 kzg.Commitment
	TLo, TMid, THi    kzg.Commitment
	WZeta, WZetaOmega kzg.Commitment
	// Extension commitments; zero (infinity) for classic proofs.
	M, H, S kzg.Commitment
	// TExtra holds quotient pieces 4–6 when custom gates push the
	// quotient degree past 3n.
	TExtra []kzg.Commitment
	Evals  ProofEvals
}

// ProofEvals carries the claimed polynomial evaluations at ζ (and z at ζω).
type ProofEvals struct {
	A, B, C, Z, ZOmega fr.Element
	QL, QR, QO, QM, QC fr.Element
	S1, S2, S3         fr.Element
	TLo, TMid, THi     fr.Element
	// Ext carries the extension's evaluations; nil for classic proofs.
	Ext *ExtEvals
}

// ExtEvals are the extra openings a lookup/custom-gate proof carries: the
// LogUp polynomials at ζ, the shifted openings at ζω (custom gates read
// the next row, the running sum is checked via S(ωx)), the extension
// selectors and round-constant columns at ζ, and the extra quotient
// pieces at ζ.
type ExtEvals struct {
	M, H, S                        fr.Element
	SOmega, AOmega, BOmega, COmega fr.Element
	QLk, Tbl, QMimc, QPosF, QPosP  fr.Element
	K0, K1, K2                     fr.Element
	TExtra                         []fr.Element
}

// evalList returns the classic evaluations at ζ in the canonical folding
// order.
func (e *ProofEvals) evalList() []fr.Element {
	return []fr.Element{
		e.A, e.B, e.C, e.Z,
		e.QL, e.QR, e.QO, e.QM, e.QC,
		e.S1, e.S2, e.S3,
		e.TLo, e.TMid, e.THi,
	}
}

// zetaEvals returns every evaluation opened at ζ in the canonical folding
// order shared by prover and verifier: the classic evalList, then for
// extended proofs the LogUp columns, extension selectors, round constants
// and extra quotient pieces.
func (e *ProofEvals) zetaEvals() []fr.Element {
	out := e.evalList()
	if x := e.Ext; x != nil {
		out = append(out,
			x.M, x.H, x.S,
			x.QLk, x.Tbl, x.QMimc, x.QPosF, x.QPosP,
			x.K0, x.K1, x.K2)
		out = append(out, x.TExtra...)
	}
	return out
}

// omegaEvals returns every evaluation opened at ζω in the canonical
// folding order: z, then for extended proofs S, a, b, c.
func (e *ProofEvals) omegaEvals() []fr.Element {
	out := []fr.Element{e.ZOmega}
	if x := e.Ext; x != nil {
		out = append(out, x.SOmega, x.AOmega, x.BOmega, x.COmega)
	}
	return out
}

// bindTranscript absorbs the verifying key and public inputs so challenges
// are bound to the exact statement being proved. Extended keys absorb the
// extension data after the classic fields, so classic transcripts are
// byte-identical to the pre-lookup prover.
func bindTranscript(t *transcript.Transcript, vk *VerifyingKey, public []fr.Element) {
	n := fr.NewElement(vk.N)
	t.AppendScalar("domain-size", &n)
	np := fr.NewElement(uint64(vk.NbPublic))
	t.AppendScalar("nb-public", &np)
	for _, c := range []kzg.Commitment{vk.QL, vk.QR, vk.QO, vk.QM, vk.QC, vk.S1, vk.S2, vk.S3} {
		cc := c
		t.AppendPoint("vk", &cc)
	}
	t.AppendScalars("public-inputs", public)
	if vk.Extended {
		flags := uint64(1)
		if vk.Custom {
			flags |= 2
		}
		fl := fr.NewElement(flags)
		t.AppendScalar("ext-flags", &fl)
		tb := fr.NewElement(uint64(vk.TableBits))
		t.AppendScalar("table-bits", &tb)
		for _, c := range []kzg.Commitment{vk.QLk, vk.Tbl, vk.QMimc, vk.QPosF, vk.QPosP, vk.KC0, vk.KC1, vk.KC2} {
			cc := c
			t.AppendPoint("vk-ext", &cc)
		}
		for l := 0; l < 3; l++ {
			t.AppendScalars("mds", vk.MDS[l][:])
		}
	}
}

// The transcript schedule, shared by Prove and prepare: each step absorbs
// one round's commitments and squeezes that round's challenges. Extended
// proofs (Evals.Ext set) add [M] and β_L, [H] and [S], the extra quotient
// pieces and the extra ζω openings; a classic proof absorbs none of them,
// so its transcript is the pre-lookup one.

// absorbWires absorbs [a], [b], [c] (and [M]) and squeezes β, γ (and β_L).
func (p *Proof) absorbWires(tr *transcript.Transcript, ch *challenges) {
	tr.AppendPoint("a", &p.A)
	tr.AppendPoint("b", &p.B)
	tr.AppendPoint("c", &p.C)
	ext := p.Evals.Ext != nil
	if ext {
		tr.AppendPoint("m", &p.M)
	}
	ch.beta = tr.ChallengeScalar("beta")
	ch.gamma = tr.ChallengeScalar("gamma")
	if ext {
		ch.betaL = tr.ChallengeScalar("beta_l")
	}
}

// absorbProducts absorbs [z] (and [H], [S]) and squeezes the α powers.
func (p *Proof) absorbProducts(tr *transcript.Transcript, ch *challenges) {
	tr.AppendPoint("z", &p.Z)
	if p.Evals.Ext != nil {
		tr.AppendPoint("h", &p.H)
		tr.AppendPoint("s", &p.S)
	}
	alpha := tr.ChallengeScalar("alpha")
	ch.alphaPow = fr.Powers(&alpha, nbAlphaPowers)
}

// absorbQuotient absorbs the quotient pieces and squeezes ζ.
func (p *Proof) absorbQuotient(tr *transcript.Transcript) fr.Element {
	tr.AppendPoint("t_lo", &p.TLo)
	tr.AppendPoint("t_mid", &p.TMid)
	tr.AppendPoint("t_hi", &p.THi)
	for i := range p.TExtra {
		tr.AppendPoint(fmt.Sprintf("t_%d", i+3), &p.TExtra[i])
	}
	return tr.ChallengeScalar("zeta")
}

// absorbEvals absorbs the claimed evaluations and squeezes v.
func (p *Proof) absorbEvals(tr *transcript.Transcript) fr.Element {
	ev := &p.Evals
	tr.AppendScalars("evals", ev.zetaEvals())
	tr.AppendScalar("z_omega", &ev.ZOmega)
	if ev.Ext != nil {
		tr.AppendScalars("evals-omega-ext", ev.omegaEvals()[1:])
	}
	return tr.ChallengeScalar("v")
}

// foldPolys returns ∑ coeffs[k]·ps[k] in a single pass, range-splitting the
// coefficient index across workers.
func foldPolys(ps []poly.Polynomial, coeffs []fr.Element) poly.Polynomial {
	maxLen := 0
	for _, p := range ps {
		if len(p) > maxLen {
			maxLen = len(p)
		}
	}
	out := make(poly.Polynomial, maxLen)
	parallel.Execute(maxLen, func(start, end int) {
		for i := start; i < end; i++ {
			var acc, t fr.Element
			for k, p := range ps {
				if i >= len(p) {
					continue
				}
				t.Mul(&p[i], &coeffs[k])
				acc.Add(&acc, &t)
			}
			out[i] = acc
		}
	})
	return out
}

// blind interpolates evals over the domain and adds nbBlinds random
// coefficients times (X^n − 1), hiding as many evaluations of the
// polynomial outside the domain.
func blind(d *poly.Domain, evals []fr.Element, nbBlinds int) (poly.Polynomial, error) {
	n := int(d.N)
	p := make(poly.Polynomial, n+nbBlinds)
	copy(p, evals)
	if err := d.IFFT(p[:n]); err != nil {
		return nil, err
	}
	for j := 0; j < nbBlinds; j++ {
		bj := randScalar()
		p[j].Sub(&p[j], &bj)
		p[n+j].Add(&p[n+j], &bj)
	}
	return p, nil
}

// opening pairs a polynomial with the slot its claimed evaluation goes to.
type opening struct {
	p   poly.Polynomial
	out *fr.Element
}

// foldOpenings returns the v-fold ∑ v^k·p_k of the opened polynomials.
func foldOpenings(os []opening, v *fr.Element) poly.Polynomial {
	ps := make([]poly.Polynomial, len(os))
	for k := range os {
		ps[k] = os[k].p
	}
	return foldPolys(ps, fr.Powers(v, len(ps)))
}

// Prove produces a proof that the witness satisfies the preprocessed
// circuit. The witness assigns every variable; its first NbPublic entries
// must equal the public inputs passed to Verify.
//
// One five-round pipeline serves every key shape. A classic key is its
// degenerate shape: no lookup columns [M], [H], [S], no extra quotient
// pieces, no ζω openings beyond z, and only constraints C0–C2 in the
// quotient, evaluated over 13 coset columns. Extended keys (lookups or
// custom gates) add the LogUp columns, the next-row openings at ζω and
// constraints C3–C13; custom-gate keys also move the quotient to an 8n
// coset in 6 pieces. TestClassicProverBitIdentity and
// TestExtendedProverBitIdentity pin both shapes byte for byte.
//
// Every O(n) and O(kn) loop is range-split across the bounded worker
// pool; the only serial remainders are the prefix scans of the grand
// product and running sum, and the transcript.
func Prove(pk *ProvingKey, witness []fr.Element) (*Proof, error) {
	if len(witness) != pk.nbVars {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrWitnessLength, len(witness), pk.nbVars)
	}
	n := pk.Domain.N
	public := make([]fr.Element, pk.nbPublic)
	copy(public, witness[:pk.nbPublic])

	// Wire value vectors over the domain rows.
	aV := make([]fr.Element, n)
	bV := make([]fr.Element, n)
	cV := make([]fr.Element, n)
	parallel.Execute(int(n), func(start, end int) {
		for i := start; i < end; i++ {
			var g Gate // padding rows wire to variable 0 with all selectors zero
			if i < len(pk.gates) {
				g = pk.gates[i]
			}
			aV[i] = witness[g.A]
			bV[i] = witness[g.B]
			cV[i] = witness[g.C]
		}
	})

	// Public-input polynomial: PI(ω^i) = -x_i.
	piPoly := make(poly.Polynomial, n)
	for i := range public {
		piPoly[i].Neg(&public[i])
	}
	if err := pk.Domain.IFFT(piPoly); err != nil {
		return nil, err
	}

	// Round 1: blinded wire polynomials and, for extended keys, the
	// multiplicity polynomial [M] (committed before β_L exists).
	aPoly, err := blind(pk.Domain, aV, 2)
	if err != nil {
		return nil, err
	}
	bPoly, err := blind(pk.Domain, bV, 2)
	if err != nil {
		return nil, err
	}
	cPoly, err := blind(pk.Domain, cV, 2)
	if err != nil {
		return nil, err
	}
	proof := &Proof{}
	round := []poly.Polynomial{aPoly, bPoly, cPoly}
	outs := []*kzg.Commitment{&proof.A, &proof.B, &proof.C}
	var mV []fr.Element
	var mPoly poly.Polynomial
	if pk.extended {
		// Ext marks the proof's shape for the transcript schedule.
		proof.Evals.Ext = &ExtEvals{}
		if mV, err = buildMultiplicities(pk.gates, witness, pk.tableBits, n); err != nil {
			return nil, err
		}
		if mPoly, err = blind(pk.Domain, mV, 2); err != nil {
			return nil, err
		}
		round = append(round, mPoly)
		outs = append(outs, &proof.M)
	}
	// The round's commitments are independent MSMs (the prover's dominant
	// cost); run them in parallel.
	if err = commitParallel(pk.SRS, round, outs); err != nil {
		return nil, err
	}
	tr := transcript.New("zkdet/plonk")
	bindTranscript(tr, pk.VK, public)
	ch := newChallenges(pk.VK)
	proof.absorbWires(tr, ch)

	// Round 2: permutation grand product z and, for extended keys, the
	// LogUp helper and running-sum columns H, S (which need β_L).
	zPoly, err := blind(pk.Domain, grandProduct(pk, aV, bV, cV, ch), 3)
	if err != nil {
		return nil, err
	}
	round = []poly.Polynomial{zPoly}
	outs = []*kzg.Commitment{&proof.Z}
	var hPoly, sPoly poly.Polynomial
	if pk.extended {
		hV, sV := buildLogUpColumns(pk.gates, aV, mV, rangeTableValues(pk.tableBits, n), ch.betaL)
		// The LogUp telescoping sum must close: S_{n-1} + H_{n-1} wraps
		// to S_0 = 0. If it doesn't, some lookup left the table.
		var total fr.Element
		total.Add(&sV[n-1], &hV[n-1])
		if !total.IsZero() {
			return nil, ErrUnsatisfied
		}
		if hPoly, err = blind(pk.Domain, hV, 2); err != nil {
			return nil, err
		}
		if sPoly, err = blind(pk.Domain, sV, 3); err != nil {
			return nil, err
		}
		round = append(round, hPoly, sPoly)
		outs = append(outs, &proof.H, &proof.S)
	}
	if err = commitParallel(pk.SRS, round, outs); err != nil {
		return nil, err
	}
	proof.absorbProducts(tr, ch)

	// Round 3: quotient t, split into degree-n pieces. The coset columns
	// follow the order quotient reads them in.
	cols := []poly.Polynomial{
		aPoly, bPoly, cPoly, zPoly,
		pk.QL, pk.QR, pk.QO, pk.QM, pk.QC,
		pk.S1, pk.S2, pk.S3, piPoly,
	}
	if pk.extended {
		cols = append(cols,
			mPoly, hPoly, sPoly,
			pk.QLk, pk.Tbl, pk.QMimc, pk.QPosF, pk.QPosP,
			pk.KC0, pk.KC1, pk.KC2)
	}
	pieces, err := quotient(pk, cols, ch)
	if err != nil {
		return nil, err
	}
	pieceCms := make([]kzg.Commitment, len(pieces))
	outs = make([]*kzg.Commitment, len(pieces))
	for p := range pieceCms {
		outs[p] = &pieceCms[p]
	}
	if err = commitParallel(pk.SRS, pieces, outs); err != nil {
		return nil, err
	}
	proof.TLo, proof.TMid, proof.THi = pieceCms[0], pieceCms[1], pieceCms[2]
	if len(pieces) > 3 {
		proof.TExtra = pieceCms[3:]
	}
	zeta := proof.absorbQuotient(tr)

	// Round 4: evaluations at ζ and ζω, listed in the zetaEvals and
	// omegaEvals folding order — independent Horner walks on the pool.
	var zetaOmega fr.Element
	zetaOmega.Mul(&zeta, &pk.Domain.Gen)
	ev := &proof.Evals
	atZeta := []opening{
		{aPoly, &ev.A}, {bPoly, &ev.B}, {cPoly, &ev.C}, {zPoly, &ev.Z},
		{pk.QL, &ev.QL}, {pk.QR, &ev.QR}, {pk.QO, &ev.QO}, {pk.QM, &ev.QM}, {pk.QC, &ev.QC},
		{pk.S1, &ev.S1}, {pk.S2, &ev.S2}, {pk.S3, &ev.S3},
		{pieces[0], &ev.TLo}, {pieces[1], &ev.TMid}, {pieces[2], &ev.THi},
	}
	atOmega := []opening{{zPoly, &ev.ZOmega}}
	if ex := ev.Ext; ex != nil {
		ex.TExtra = make([]fr.Element, len(pieces)-3)
		atZeta = append(atZeta,
			opening{mPoly, &ex.M}, opening{hPoly, &ex.H}, opening{sPoly, &ex.S},
			opening{pk.QLk, &ex.QLk}, opening{pk.Tbl, &ex.Tbl},
			opening{pk.QMimc, &ex.QMimc}, opening{pk.QPosF, &ex.QPosF}, opening{pk.QPosP, &ex.QPosP},
			opening{pk.KC0, &ex.K0}, opening{pk.KC1, &ex.K1}, opening{pk.KC2, &ex.K2})
		for p := 3; p < len(pieces); p++ {
			atZeta = append(atZeta, opening{pieces[p], &ex.TExtra[p-3]})
		}
		atOmega = append(atOmega,
			opening{sPoly, &ex.SOmega}, opening{aPoly, &ex.AOmega},
			opening{bPoly, &ex.BOmega}, opening{cPoly, &ex.COmega})
	}
	parallel.Execute(len(atZeta)+len(atOmega), func(start, end int) {
		for i := start; i < end; i++ {
			if i < len(atZeta) {
				*atZeta[i].out = atZeta[i].p.Eval(&zeta)
			} else {
				o := atOmega[i-len(atZeta)]
				*o.out = o.p.Eval(&zetaOmega)
			}
		}
	})
	v := proof.absorbEvals(tr)

	// Round 5: one v-folded opening at ζ and one at ζω (for a classic
	// proof the latter is z alone).
	wZeta, _ := poly.DivideByLinear(foldOpenings(atZeta, &v), &zeta)
	wZetaOmega, _ := poly.DivideByLinear(foldOpenings(atOmega, &v), &zetaOmega)
	if err = commitParallel(pk.SRS,
		[]poly.Polynomial{wZeta, wZetaOmega},
		[]*kzg.Commitment{&proof.WZeta, &proof.WZetaOmega}); err != nil {
		return nil, err
	}
	return proof, nil
}

// grandProduct returns the permutation accumulator over the domain rows:
// z_0 = 1, z_{i+1} = z_i · ∏(w + β·k_w·ω^i + γ) / ∏(w + β·sσ_w(i) + γ).
// The per-row numerator and denominator products are independent; only
// the prefix scan that turns them into z is serial.
func grandProduct(pk *ProvingKey, aV, bV, cV []fr.Element, ch *challenges) []fr.Element {
	n := len(aV)
	omega := pk.Domain.Elements()
	nums := make([]fr.Element, n)
	dens := make([]fr.Element, n)
	parallel.Execute(n, func(start, end int) {
		for i := start; i < end; i++ {
			var f1, f2, f3, t fr.Element
			// (a + β·ω^i + γ)(b + β·k1·ω^i + γ)(c + β·k2·ω^i + γ)
			f1.Mul(&ch.beta, &omega[i])
			f1.Add(&f1, &aV[i])
			f1.Add(&f1, &ch.gamma)
			t.Mul(&ch.beta, &omega[i])
			t.Mul(&t, &ch.k1)
			f2.Add(&bV[i], &t)
			f2.Add(&f2, &ch.gamma)
			t.Mul(&ch.beta, &omega[i])
			t.Mul(&t, &ch.k2)
			f3.Add(&cV[i], &t)
			f3.Add(&f3, &ch.gamma)
			nums[i].Mul(&f1, &f2)
			nums[i].Mul(&nums[i], &f3)

			// (a + β·sσ1 + γ)(b + β·sσ2 + γ)(c + β·sσ3 + γ)
			lbl := pk.sigmaLabel[i]
			t.Mul(&ch.beta, &lbl[0])
			f1.Add(&aV[i], &t)
			f1.Add(&f1, &ch.gamma)
			t.Mul(&ch.beta, &lbl[1])
			f2.Add(&bV[i], &t)
			f2.Add(&f2, &ch.gamma)
			t.Mul(&ch.beta, &lbl[2])
			f3.Add(&cV[i], &t)
			f3.Add(&f3, &ch.gamma)
			dens[i].Mul(&f1, &f2)
			dens[i].Mul(&dens[i], &f3)
		}
	})
	fr.BatchInvert(dens)
	zV := make([]fr.Element, n)
	zV[0] = fr.One()
	for i := 0; i < n-1; i++ {
		var step fr.Element
		step.Mul(&nums[i], &dens[i])
		zV[i+1].Mul(&zV[i], &step)
	}
	return zV
}

// quotient evaluates the constraint numerator on the key's coset domain
// (preprocessed on the proving key, so its twiddle and coset tables are
// shared across proofs), divides by Z_H and returns t in coefficient form,
// split into degree-n pieces: 3 for classic and lookup keys, 6 for
// custom-gate keys. cols are the coefficient-form columns listed in Prove.
func quotient(pk *ProvingKey, cols []poly.Polynomial, ch *challenges) ([]poly.Polynomial, error) {
	d := pk.quotientDomain
	n := pk.Domain.N
	big := d.N
	factor := big / n // coset index step corresponding to one ω step

	// The coset evaluations are independent FFTs.
	ev := make([][]fr.Element, len(cols))
	errs := make([]error, len(cols))
	parallel.Execute(len(cols), func(start, end int) {
		for i := start; i < end; i++ {
			e := make([]fr.Element, big)
			copy(e, cols[i])
			errs[i] = d.FFTCoset(e)
			ev[i] = e
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Coset points x_i = g·ω_bigⁱ, their Z_H values (period factor) and
	// L1(x) = Z_H(x) / (n·(x-1)).
	elems := d.Elements()
	xs := make([]fr.Element, big)
	shift := fr.NewElement(fr.MultiplicativeGenerator)
	parallel.Execute(int(big), func(start, end int) {
		for i := start; i < end; i++ {
			xs[i].Mul(&elems[i], &shift)
		}
	})
	var cur fr.Element
	cur.ExpUint64(&shift, n)
	wn := d.Element(n) // primitive factor-th root of unity
	one := fr.One()
	zh := make([]fr.Element, factor)
	for i := range zh {
		zh[i].Sub(&cur, &one)
		cur.Mul(&cur, &wn)
	}
	zhInv := append([]fr.Element(nil), zh...)
	fr.BatchInvert(zhInv)
	l1Den := make([]fr.Element, big)
	nEl := fr.NewElement(n)
	parallel.Execute(int(big), func(start, end int) {
		for i := start; i < end; i++ {
			l1Den[i].Sub(&xs[i], &one)
			l1Den[i].Mul(&l1Den[i], &nEl)
		}
	})
	fr.BatchInvert(l1Den)

	// The coset evaluations of t are independent; range-split them.
	tPoly := make(poly.Polynomial, big)
	parallel.Execute(int(big), func(start, end int) {
		var pv pointVals
		for ii := start; ii < end; ii++ {
			i := uint64(ii)
			j := (i + factor) % big
			pv.x = xs[i]
			pv.a, pv.b, pv.c = ev[0][i], ev[1][i], ev[2][i]
			pv.z, pv.zw = ev[3][i], ev[3][j]
			pv.ql, pv.qr, pv.qo, pv.qm, pv.qc = ev[4][i], ev[5][i], ev[6][i], ev[7][i], ev[8][i]
			pv.s1, pv.s2, pv.s3, pv.pi = ev[9][i], ev[10][i], ev[11][i], ev[12][i]
			if ch.extended {
				pv.aw, pv.bw, pv.cw = ev[0][j], ev[1][j], ev[2][j]
				pv.m, pv.h, pv.s, pv.sw = ev[13][i], ev[14][i], ev[15][i], ev[15][j]
				pv.qlk, pv.tbl = ev[16][i], ev[17][i]
				pv.qmimc, pv.qposf, pv.qposp = ev[18][i], ev[19][i], ev[20][i]
				pv.k0, pv.k1c, pv.k2c = ev[21][i], ev[22][i], ev[23][i]
			}
			pv.l1.Mul(&zh[i%factor], &l1Den[i])
			num := numerator(&pv, ch)
			tPoly[i].Mul(&num, &zhInv[i%factor])
		}
	})
	if err := d.IFFTCoset(tPoly); err != nil {
		return nil, err
	}

	// A satisfied circuit yields deg(t) ≤ nbPieces·n + 5; any higher
	// coefficient means the division by Z_H was not exact, i.e. the
	// witness failed some constraint.
	nbPieces := quotientPieces(pk.custom)
	maxLen := uint64(nbPieces)*n + 6
	for i := maxLen; i < big; i++ {
		if !tPoly[i].IsZero() {
			return nil, ErrUnsatisfied
		}
	}
	pieces := make([]poly.Polynomial, nbPieces)
	for p := range pieces {
		pieces[p] = tPoly[uint64(p)*n : uint64(p+1)*n]
	}
	pieces[nbPieces-1] = tPoly[uint64(nbPieces-1)*n : maxLen]
	return pieces, nil
}
