package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/storage"
)

// controlEvery is how often (in audits) the negative control runs: an
// audit against the tampered registry that must fail.
const controlEvery = 50

// corpusToken is one auditable token with what a correct audit of it
// reports, and how often it is drawn.
type corpusToken struct {
	id                  uint64
	tokens, encs, trans int
	weight              int
}

// drawWeights are the draw weights of the corpus tokens A, F, B, C1, C2,
// G, in percent. Audit cost grows with lineage depth, so the latency
// distribution is a staircase of one step per depth. Uniform draws would
// put the median on the edge between two steps, where it jumps with the
// seed; these weights put it inside the depth-3 step (cumulative 40–80%)
// and the tail inside the depth-4 step.
var drawWeights = []int{15, 15, 10, 20, 20, 20}

// buildCorpus mints and derives lineages of depth 1–4, each token with
// its own π_e and each derivation with its own π_t:
//
//	A, F: mints (depth 1)       B = duplicate(A) (depth 2)
//	C1, C2 = partition(B) (3)   G = aggregate(C1, F) (4)
//
// Datasets are small (1–3 entries) because only verification is timed.
func buildCorpus(m *core.Marketplace, reg *core.ProofRegistry, rng *rand.Rand, owner chain.Address) ([]corpusToken, error) {
	parents := map[uint64][]uint64{}
	mint := func() (*core.Asset, error) {
		a, err := m.MintAsset(owner, "corpus", randomDataset(rng, 2), randomElement(rng))
		if err == nil {
			reg.PublishAsset(a)
		}
		return a, err
	}
	derive := func(res *core.TransformResult, err error, srcs ...*core.Asset) (*core.TransformResult, error) {
		if err != nil {
			return nil, err
		}
		reg.PublishTransform(res, nil)
		for _, a := range res.Assets {
			for _, s := range srcs {
				parents[a.TokenID] = append(parents[a.TokenID], s.TokenID)
			}
		}
		return res, nil
	}
	a, err := mint()
	if err != nil {
		return nil, err
	}
	f, err := mint()
	if err != nil {
		return nil, err
	}
	bRes, err := m.Duplicate(owner, "corpus", a)
	if bRes, err = derive(bRes, err, a); err != nil {
		return nil, err
	}
	b := bRes.Assets[0]
	cRes, err := m.Partition(owner, "corpus", b, []int{1, 1})
	if cRes, err = derive(cRes, err, b); err != nil {
		return nil, err
	}
	gRes, err := m.Aggregate(owner, "corpus", []*core.Asset{cRes.Assets[0], f})
	if gRes, err = derive(gRes, err, cRes.Assets[0], f); err != nil {
		return nil, err
	}
	ids := []uint64{a.TokenID, f.TokenID, b.TokenID, cRes.Assets[0].TokenID, cRes.Assets[1].TokenID, gRes.Assets[0].TokenID}
	var out []corpusToken
	for i, id := range ids {
		seen := map[uint64]bool{}
		stack := []uint64{id}
		ct := corpusToken{id: id, weight: drawWeights[i]}
		for len(stack) > 0 {
			t := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[t] {
				continue
			}
			seen[t] = true
			ct.tokens++
			ct.encs++
			if len(parents[t]) > 0 {
				ct.trans++
			}
			stack = append(stack, parents[t]...)
		}
		out = append(out, ct)
	}
	return out, nil
}

// tamper copies the registry with token x's π_e statement replaced by
// token y's, so an audit reaching x must report ErrAuditMismatch.
func tamper(reg *core.ProofRegistry, corpus []corpusToken, x, y uint64) *core.ProofRegistry {
	bad := core.NewProofRegistry()
	for _, t := range corpus {
		p, _ := reg.Lookup(t.id) // every corpus token was published
		if t.id == x {
			other, _ := reg.Lookup(y)
			cp := *p
			cp.Encryption = other.Encryption
			cp.EncryptionProof = other.EncryptionProof
			p = &cp
		}
		bad.Publish(t.id, p)
	}
	return bad
}

// auditor is the closed-loop client. It audits through a marketplace
// whose blob store is wrapped with its cursor.
//
// The workload runs one auditor, not nproc: each audit's verifications
// already spread over every CPU through the prover's worker pool, and with
// nproc auditors the per-audit latency depended on how the clients'
// parallel phases happened to interleave. In interleaved runs on a 2-CPU
// machine the median's spread between runs was 0.24 with two auditors
// against 0.11 with one.
type auditor struct {
	m      *core.Marketplace
	reg    *core.ProofRegistry
	bad    *core.ProofRegistry
	badID  uint64
	corpus []corpusToken
	rng    *rand.Rand
	cur    *Cursor

	attempted int
	fails     []string
	untraced  []float64
	traced    []float64
	drawn     []uint64
	// per traced audit: replayed component times and counts
	unattributed []float64
	traceUS      []float64
	ancestorsUS  []float64
	verifyE      []float64
	verifyT      []float64
	proofs       []float64
	tokens       []float64
}

func (a *auditor) fail(format string, args ...any) {
	a.fails = append(a.fails, fmt.Sprintf(format, args...))
}

// draw picks a corpus token by weight.
func (a *auditor) draw() corpusToken {
	total := 0
	for _, t := range a.corpus {
		total += t.weight
	}
	n := a.rng.Intn(total)
	for _, t := range a.corpus {
		if n < t.weight {
			return t
		}
		n -= t.weight
	}
	return a.corpus[len(a.corpus)-1]
}

// run audits until the deadline, traced when tracer is non-nil.
func (a *auditor) run(deadline time.Time, tracer *Tracer) {
	a.cur.T = tracer
	for time.Now().Before(deadline) {
		a.attempted++
		a.cur.Op = uint64(a.attempted)
		if a.attempted%controlEvery == 0 {
			if _, err := a.m.AuditLineage(a.bad, a.badID); !errors.Is(err, core.ErrAuditMismatch) {
				a.fail("negative control: tampered audit of token %d returned %v", a.badID, err)
			}
			continue
		}
		tok := a.draw()
		a.drawn = append(a.drawn, tok.id)
		a.cur.Push("audit")
		a.cur.Push("audit.lineage")
		start := time.Now()
		rep, err := a.m.AuditLineage(a.reg, tok.id)
		d := time.Since(start)
		a.cur.Pop()
		if err != nil {
			a.cur.Pop()
			a.fail("audit of token %d: %v", tok.id, err)
			continue
		}
		if len(rep.Tokens) != tok.tokens || rep.EncryptionProofs != tok.encs || rep.TransformProofs != tok.trans {
			a.fail("audit of token %d: %d tokens, %d π_e, %d π_t; want %d, %d, %d", tok.id,
				len(rep.Tokens), rep.EncryptionProofs, rep.TransformProofs, tok.tokens, tok.encs, tok.trans)
		}
		if a.cur.T == nil {
			a.cur.Pop()
			a.untraced = append(a.untraced, ms(d))
			continue
		}
		a.traced = append(a.traced, ms(d))
		a.proofs = append(a.proofs, float64(rep.EncryptionProofs+rep.TransformProofs))
		a.tokens = append(a.tokens, float64(len(rep.Tokens)))
		if err := a.replay(tok.id, d); err != nil {
			a.fail("replaying audit of token %d: %v", tok.id, err)
		}
		a.cur.Pop()
	}
}

// replay times the public calls one audit is made of, on the same token:
// the lineage walk, each ciphertext fetch, and each π_e and π_t
// verification. What they do not cover of the audit's time is reported
// as unattributed.
func (a *auditor) replay(id uint64, auditTime time.Duration) error {
	a.cur.Push("audit.replay")
	defer a.cur.Pop()
	var sum time.Duration
	timed := func(name string, out *[]float64, unit func(time.Duration) float64, fn func() error) error {
		a.cur.Push(name)
		t := time.Now()
		err := fn()
		d := time.Since(t)
		a.cur.Pop()
		sum += d
		if out != nil {
			*out = append(*out, unit(d))
		}
		return err
	}
	var lineage []*contracts.Token
	if err := timed("audit.trace", &a.traceUS, us, func() (err error) {
		lineage, err = a.m.Trace(id)
		return err
	}); err != nil {
		return err
	}
	t := time.Now()
	a.cur.Push("indexer.ancestors")
	_, err := a.m.Indexer().AncestorIDs(id)
	a.cur.Pop()
	a.ancestorsUS = append(a.ancestorsUS, us(time.Since(t)))
	if err != nil {
		return err
	}
	for _, tok := range lineage {
		p, ok := a.reg.Lookup(tok.ID)
		if !ok {
			return fmt.Errorf("token %d has no proofs", tok.ID)
		}
		var uri storage.URI
		copy(uri[:], tok.URI)
		if err := timed("storage.fetch", nil, nil, func() error { _, err := a.m.Store.Get(uri); return err }); err != nil {
			return err
		}
		if err := timed("audit.verify_e", &a.verifyE, ms, func() error {
			return a.m.Sys.VerifyEncryption(p.Encryption, p.EncryptionProof)
		}); err != nil {
			return err
		}
		if p.Transform != nil {
			if err := timed("audit.verify_t", &a.verifyT, ms, func() error {
				return a.m.Sys.VerifyTransform(p.Transform, p.Processor)
			}); err != nil {
				return err
			}
		}
	}
	a.unattributed = append(a.unattributed, 1-sum.Seconds()/auditTime.Seconds())
	return nil
}

func runAudit(cfg config) (*report, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	rep := &report{layer: map[string]float64{}}
	sys, err := core.NewTestSystem(1 << 12)
	if err != nil {
		return nil, err
	}
	m, _, err := core.NewMarketplace(sys, 8)
	if err != nil {
		return nil, err
	}
	m.AttachIndexer()
	owner := chain.AddressFromString(fmt.Sprintf("owner-%d", cfg.seed))
	m.Chain.Faucet(owner, 1<<60)
	reg := core.NewProofRegistry()
	corpus, err := buildCorpus(m, reg, rng, owner)
	if err != nil {
		return nil, fmt.Errorf("building corpus: %w", err)
	}
	m.Chain.SealBlock() // the indexer sees the corpus
	xi := rng.Intn(len(corpus))
	yi := (xi + 1 + rng.Intn(len(corpus)-1)) % len(corpus)
	x := corpus[xi].id
	bad := tamper(reg, corpus, x, corpus[yi].id)

	var tracer *Tracer
	if cfg.trace {
		tracer = NewTracer()
	}
	cur := &Cursor{}
	m.Store = &tracedStore{inner: m.Store, cur: cur}
	a := &auditor{m: m, reg: reg, bad: bad, badID: x, corpus: corpus,
		rng: rand.New(rand.NewSource(cfg.seed*1000 + 1)), cur: cur}
	// Warm-up: one audit of every token (verifying keys and caches),
	// untimed.
	for _, t := range corpus {
		if _, err := m.AuditLineage(reg, t.id); err != nil {
			return nil, fmt.Errorf("warm-up audit of token %d: %w", t.id, err)
		}
	}
	rep.setupEnd = endSetup()

	start := time.Now()
	deadline := start.Add(cfg.window)
	var (
		prof     *cpuProfile
		rt0, rt1 runtimeSample
		attr     *Attribution
	)
	if cfg.trace {
		// A third of the window runs untraced for the overhead baseline.
		a.run(start.Add(cfg.window/untracedShare), nil)
		rt0 = readRuntime()
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
		a.run(deadline, tracer)
		if attr, err = prof.stop(); err != nil {
			return nil, err
		}
		rt1 = readRuntime()
	} else {
		a.run(deadline, nil)
	}
	elapsed := time.Since(start)
	rep.peakRSS = peakRSSMB()

	rep.attempted = a.attempted
	for _, f := range a.fails {
		rep.fail("%s", f)
	}
	untraced, traced := a.untraced, a.traced
	seen := map[uint64]bool{}
	repeats := 0
	for _, id := range a.drawn {
		if seen[id] {
			repeats++
		}
		seen[id] = true
	}
	rep.ops = untraced
	rep.opsPerS = float64(len(untraced)+len(traced)) / elapsed.Seconds()
	rep.metric("audit_ms", "ms", untraced)
	rep.value("audits_per_s", "1/s", rep.opsPerS)
	l := rep.layer
	l["input.audit_repeat_frac"] = float64(repeats) / float64(len(a.drawn))
	rep.prop("corpus_tokens", "count", float64(len(corpus)))
	rep.prop("audit_repeat_frac", "ratio", l["input.audit_repeat_frac"])
	rep.tracer = tracer
	if !cfg.trace {
		return rep, nil
	}
	spans := tracer.Spans()
	l["audit.verify_e_ms"] = Summarize(a.verifyE).Median
	l["audit.verify_t_ms"] = Summarize(a.verifyT).Median
	l["audit.proofs_per_audit"] = mean(a.proofs)
	l["audit.tokens_per_audit"] = mean(a.tokens)
	l["audit.trace_us"] = Summarize(a.traceUS).Median
	l["audit.unattributed_frac"] = Summarize(a.unattributed).Median
	l["indexer.ancestors_us"] = Summarize(a.ancestorsUS).Median
	l["storage.get_us"] = Summarize(durationsUS(spans, "storage.get")).Median
	cpuLayer(l, attr, len(traced))
	runtimeLayer(l, rt0, rt1, len(traced))
	if u, t := Summarize(untraced).Median, Summarize(traced).Median; u > 0 {
		l["trace.overhead_frac"] = t/u - 1
	}
	for _, b := range spanLayer(l, tracer) {
		rep.fail("trace: %s", b)
	}
	return rep, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
