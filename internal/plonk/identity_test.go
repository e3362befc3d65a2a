package plonk

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
)

// The lookup/custom-gate extension must leave circuits that use neither
// feature byte-for-byte unchanged: same preprocessed commitments, same
// proof points and evaluations, and hence the same verifier transcript.
// These digests were captured from the pre-lookup prover (commit 396cf92)
// with blinding pinned to the seeded stream below; any drift in the classic
// path fails here. CI runs this as the lookup-identity job.
var classicGoldens = map[string]struct{ vk, proof string }{
	"muladd":  {"d2f0d33c2c329fee79d96db83a69d0896fcc2aa10f2eed1781ade3ff482cacbd", "6b3aa6919443a1125991c5c756a758aa7216c840258ef4b49318e7b465161a33"},
	"power5":  {"fcc7edf635b09124458e96b2ec89160226e288e0c51aea3f6f78fcf2ffe5d670", "f1b9590cb1908e48d70d81bf933c2c381002852f2d7b452a577211f7d70aa304"},
	"power50": {"a21bae105b9940e8c5417c9a6c22e654140f15f17a626afa44bdf2c0e807a402", "287aba7720ffaba9320b179774ab00840bd7f60e0783e35a87c38277b14a4eb2"},
}

func TestClassicProverBitIdentity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*ConstraintSystem, []fr.Element)
	}{
		{"muladd", buildMulAddCircuit},
		{"power5", func() (*ConstraintSystem, []fr.Element) { return buildPowerCircuit(5) }},
		{"power50", func() (*ConstraintSystem, []fr.Element) { return buildPowerCircuit(50) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs, witness := tc.build()
			pk, vk, err := Setup(cs, testSRSOnce())
			if err != nil {
				t.Fatal(err)
			}
			want := classicGoldens[tc.name]
			if got := hex.EncodeToString(digestVKForTest(vk)); got != want.vk {
				t.Errorf("verifying key drifted from pre-lookup prover:\n got %s\nwant %s", got, want.vk)
			}
			restore := randScalar
			randScalar = seededScalarsForTest(0x90_1d)
			proof, err := Prove(pk, witness)
			randScalar = restore
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(vk, proof, witness[:cs.NbPublic()]); err != nil {
				t.Fatalf("pinned proof rejected: %v", err)
			}
			if got := hex.EncodeToString(digestProofForTest(proof)); got != want.proof {
				t.Errorf("proof drifted from pre-lookup prover:\n got %s\nwant %s", got, want.proof)
			}
		})
	}
}

// seededScalarsForTest returns a deterministic scalar stream for pinning
// proofs: call i yields SHA-256("zkdet/golden-blind" ‖ seed ‖ i) reduced
// into Fr.
func seededScalarsForTest(seed uint64) func() fr.Element {
	var ctr uint64
	return func() fr.Element {
		var buf [16]byte
		binary.BigEndian.PutUint64(buf[:8], seed)
		binary.BigEndian.PutUint64(buf[8:], ctr)
		ctr++
		h := sha256.Sum256(append([]byte("zkdet/golden-blind"), buf[:]...))
		return fr.FromBytes(h[:])
	}
}

// digestVKForTest hashes every verifying-key field that determines the
// verifier's behavior, independent of any serialization format.
func digestVKForTest(vk *VerifyingKey) []byte {
	h := sha256.New()
	var u [8]byte
	binary.BigEndian.PutUint64(u[:], vk.N)
	h.Write(u[:])
	binary.BigEndian.PutUint64(u[:], uint64(vk.NbPublic))
	h.Write(u[:])
	for _, p := range []interface{ Bytes() [64]byte }{
		&vk.QL, &vk.QR, &vk.QO, &vk.QM, &vk.QC, &vk.S1, &vk.S2, &vk.S3,
	} {
		b := p.Bytes()
		h.Write(b[:])
	}
	k1 := vk.K1.Bytes()
	k2 := vk.K2.Bytes()
	h.Write(k1[:])
	h.Write(k2[:])
	return h.Sum(nil)
}

// digestProofForTest hashes the proof's points, evaluations and (hence)
// everything the verifier transcript absorbs, independent of the wire
// encoding in serialize.go.
func digestProofForTest(p *Proof) []byte {
	h := sha256.New()
	for _, pt := range []interface{ Bytes() [64]byte }{
		&p.A, &p.B, &p.C, &p.Z, &p.TLo, &p.TMid, &p.THi, &p.WZeta, &p.WZetaOmega,
	} {
		b := pt.Bytes()
		h.Write(b[:])
	}
	evals := p.Evals.evalList()
	evals = append(evals, p.Evals.ZOmega)
	for i := range evals {
		b := evals[i].Bytes()
		h.Write(b[:])
	}
	return h.Sum(nil)
}

// extendedGoldens pin lookup and custom-gate keys and proofs the same way
// classicGoldens pin classic ones. They were captured from the two-prover
// implementation (separate classic and extended provers, commit 6f7b88e)
// before the two were merged into one round pipeline, with blinding pinned
// to the same seeded stream.
var extendedGoldens = map[string]struct{ vk, proof string }{
	"lookup":   {"507f13c525136b0d42dba98d45ab907c36ec9de0ee0906a9240771a553548a41", "88afae2b4e7793eee46c16eb854ed8bea7a8b2e3e2aebf9ddb4fefa0cec4ce24"},
	"mimc":     {"6519150941ebee16b5618ba120ca5a31ed6bccfefa4cb33b53e9c198c1068af7", "35de77849dd60dd96c961b52233cb232d908d36d7dc335cfb0fce6a2b1895d6b"},
	"poseidon": {"00775f8561af70b75e80ac7fb5feed49ff83707a5037b708abe914d7cdfceb0b", "0209d498be151ddbe354933f7ff13777f8c4683bf0a955631a60ce4711818c36"},
	"mixed":    {"eca323ce62d4e0d952f7d1173b0ac71aa5db93d31679dafc8141f4b280b52104", "e914b2178cc43b31fdad507572f05208a391d938719290a63e4c27b9383a3c82"},
}

func TestExtendedProverBitIdentity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*ConstraintSystem, []fr.Element)
	}{
		{"lookup", func() (*ConstraintSystem, []fr.Element) {
			return buildLookupCircuit(8, []uint64{0, 1, 42, 42, 255, 128})
		}},
		{"mimc", func() (*ConstraintSystem, []fr.Element) { return buildMiMCCustomCircuit(5) }},
		{"poseidon", func() (*ConstraintSystem, []fr.Element) { return buildPoseidonCustomCircuit(6) }},
		{"mixed", buildMixedCircuit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs, witness := tc.build()
			pk, vk, err := Setup(cs, testSRSOnce())
			if err != nil {
				t.Fatal(err)
			}
			if !vk.Extended {
				t.Fatal("want an extended key")
			}
			want := extendedGoldens[tc.name]
			if got := hex.EncodeToString(digestExtVKForTest(vk)); got != want.vk {
				t.Errorf("extended verifying key drifted:\n got %s\nwant %s", got, want.vk)
			}
			restore := randScalar
			randScalar = seededScalarsForTest(0x90_1d)
			proof, err := Prove(pk, witness)
			randScalar = restore
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(vk, proof, witness[:cs.NbPublic()]); err != nil {
				t.Fatalf("pinned proof rejected: %v", err)
			}
			if got := hex.EncodeToString(digestExtProofForTest(proof)); got != want.proof {
				t.Errorf("extended proof drifted:\n got %s\nwant %s", got, want.proof)
			}
		})
	}
}

// digestExtVKForTest extends digestVKForTest with the lookup/custom-gate
// shape, table size, Poseidon MDS matrix and the eight extension
// commitments.
func digestExtVKForTest(vk *VerifyingKey) []byte {
	h := sha256.New()
	h.Write(digestVKForTest(vk))
	var u [8]byte
	var flags uint64
	if vk.Extended {
		flags |= 1
	}
	if vk.Custom {
		flags |= 2
	}
	binary.BigEndian.PutUint64(u[:], flags)
	h.Write(u[:])
	binary.BigEndian.PutUint64(u[:], uint64(vk.TableBits))
	h.Write(u[:])
	for l := range vk.MDS {
		for j := range vk.MDS[l] {
			b := vk.MDS[l][j].Bytes()
			h.Write(b[:])
		}
	}
	for _, p := range []interface{ Bytes() [64]byte }{
		&vk.QLk, &vk.Tbl, &vk.QMimc, &vk.QPosF, &vk.QPosP, &vk.KC0, &vk.KC1, &vk.KC2,
	} {
		b := p.Bytes()
		h.Write(b[:])
	}
	return h.Sum(nil)
}

// digestExtProofForTest extends digestProofForTest with the LogUp
// commitments, the extra quotient pieces and every extension evaluation.
func digestExtProofForTest(p *Proof) []byte {
	h := sha256.New()
	h.Write(digestProofForTest(p))
	pts := []interface{ Bytes() [64]byte }{&p.M, &p.H, &p.S}
	for i := range p.TExtra {
		pts = append(pts, &p.TExtra[i])
	}
	for _, pt := range pts {
		b := pt.Bytes()
		h.Write(b[:])
	}
	e := p.Evals.Ext
	scalars := []fr.Element{
		e.M, e.H, e.S,
		e.SOmega, e.AOmega, e.BOmega, e.COmega,
		e.QLk, e.Tbl, e.QMimc, e.QPosF, e.QPosP,
		e.K0, e.K1, e.K2,
	}
	scalars = append(scalars, e.TExtra...)
	for i := range scalars {
		b := scalars[i].Bytes()
		h.Write(b[:])
	}
	return h.Sum(nil)
}
