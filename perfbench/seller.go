package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/ct"
)

// sellerClient is the seller workload's single closed-loop client: one
// in-memory marketplace with direct chain submission, driven through the
// full lifecycle of one dataset per operation.
type sellerClient struct {
	m      *core.Marketplace
	reg    *core.ProofRegistry
	ak     *ct.AuditorKey
	rng    *rand.Rand
	cur    *Cursor
	issuer chain.Address
	seller chain.Address
	buyer  chain.Address
	nextEx uint64

	// labels are the entry labels to apply after each upcoming blob Put
	// or Submit, in order; only traced operations set them.
	labels []string
	// gas sums the receipts of the current lifecycle.
	gas uint64
}

// submit is the marketplace's Submitter: the direct chain submit it would
// make anyway, bracketed by a span.
func (c *sellerClient) submit(tx chain.Transaction) (*chain.Receipt, error) {
	c.cur.Push("chain.submit")
	r, err := c.m.Chain.Submit(tx)
	c.cur.Pop()
	if r != nil {
		c.gas += r.GasUsed
	}
	c.nextLabel()
	return r, err
}

// nextLabel moves the entry label on at a Put or Submit. Those calls are
// where the marketplace passes from one proof to the next (Duplicate
// stores the new ciphertext between its π_e and its π_t; the sale locks
// the note between π_p and π_k), so the label tracks the proof running
// on the worker goroutines the client spawns.
func (c *sellerClient) nextLabel() {
	if len(c.labels) > 0 {
		setEntry(c.labels[0])
		c.labels = c.labels[1:]
	}
}

// step opens a lifecycle step span; when traced it also labels the
// goroutine with the step's first proof entry point and queues the labels
// that follow each of the step's Puts and Submits.
func (c *sellerClient) step(traced bool, name, entry string, after ...string) {
	c.cur.Push(name)
	if traced {
		setEntry(entry)
		c.labels = after
	}
}

// lifecycleOut is what one lifecycle's correctness gates check.
type lifecycleOut struct {
	op        uint64
	exID      uint64
	value     uint64
	data, got core.Dataset
	child     *core.Asset
	audit     *core.AuditReport
	note      uint64
	elapsed   time.Duration
}

// lifecycle runs one operation: mint (π_e) → duplicate (π_e + π_t) → the
// buyer's audit of the duplicate → the issuer funds the buyer with one
// confidential note (π_ct) → confidential sale of the duplicate (π_p, lock,
// π_k, settle, transfer, decrypt). It returns what check needs, with the
// lifecycle's wall time, or nil after recording a failure.
func (c *sellerClient) lifecycle(op uint64, traced bool, rep *report) *lifecycleOut {
	data := randomDataset(c.rng, 4)
	key := randomElement(c.rng)
	value := 1 + c.rng.Uint64()%(1<<20)
	c.nextEx++
	exID := c.nextEx
	label := fmt.Sprintf("seller-%d", op)
	c.cur.Op = op
	c.gas = 0
	rep.attempted++
	defer func() {
		if traced {
			setEntry("other")
			c.labels = nil
		}
	}()

	start := time.Now()
	c.cur.Push("seller.lifecycle")
	c.step(traced, "seller.mint", "pi_e", "other", "other")
	asset, err := c.m.MintAsset(c.seller, label, data, key)
	c.cur.Pop()
	if err != nil {
		c.cur.Pop()
		rep.fail("op %d mint: %v", op, err)
		return nil
	}
	c.reg.PublishAsset(asset)

	c.step(traced, "seller.derive", "pi_e", "pi_t", "other")
	dup, err := c.m.Duplicate(c.seller, label, asset)
	c.cur.Pop()
	if err != nil {
		c.cur.Pop()
		rep.fail("op %d duplicate: %v", op, err)
		return nil
	}
	c.reg.PublishTransform(dup, nil)
	child := dup.Assets[0]

	c.step(traced, "seller.audit", "other")
	audit, err := c.m.AuditLineage(c.reg, child.TokenID)
	c.cur.Pop()
	if err != nil {
		c.cur.Pop()
		rep.fail("op %d audit: %v", op, err)
		return nil
	}

	c.step(traced, "seller.fund", "pi_ct", "other")
	notes, err := c.m.ConfidentialMint([]core.ConfPayment{{Value: value, To: c.buyer}})
	c.cur.Pop()
	if err != nil || len(notes) != 1 {
		c.cur.Pop()
		rep.fail("op %d fund: %d notes, %v", op, len(notes), err)
		return nil
	}

	c.step(traced, "seller.sale", "pi_p", "pi_k", "other", "other")
	got, err := c.m.SellConfidential(exID, c.seller, c.buyer, child, core.TruePredicate{}, notes[0])
	c.cur.Pop()
	c.cur.Pop()
	elapsed := time.Since(start)
	if err != nil {
		rep.fail("op %d sale: %v", op, err)
		return nil
	}
	return &lifecycleOut{op: op, exID: exID, value: value, data: data, got: got, child: child,
		audit: audit, note: notes[0].ID, elapsed: elapsed}
}

// check runs a lifecycle's correctness gates, untimed: the buyer decrypted
// the minted dataset, the audit verified 2 π_e and 1 π_t, and an audit
// with the auditor key opens the payment note to its value. It then seals
// the lifecycle's block.
func (c *sellerClient) check(o *lifecycleOut, rep *report) bool {
	ok := true
	if !sameDataset(o.got, o.data) {
		rep.fail("op %d: buyer decrypted a different dataset", o.op)
		ok = false
	}
	if o.audit.EncryptionProofs != 2 || o.audit.TransformProofs != 1 || len(o.audit.Tokens) != 2 {
		rep.fail("op %d: audit verified %d π_e, %d π_t over %d tokens, want 2, 1, 2",
			o.op, o.audit.EncryptionProofs, o.audit.TransformProofs, len(o.audit.Tokens))
		ok = false
	}
	opened, err := c.m.AuditLineage(c.reg, o.child.TokenID, core.WithAuditorKey(c.ak))
	if err != nil {
		rep.fail("op %d auditor audit: %v", o.op, err)
		return false
	}
	found := false
	for _, p := range opened.ConfidentialPayments {
		if p.NoteID == o.note && p.ExchangeID == o.exID && p.TokenID == o.child.TokenID {
			found = p.Value == o.value
		}
	}
	if !found {
		rep.fail("op %d: auditor did not open the payment note to %d", o.op, o.value)
		ok = false
	}
	c.m.Chain.SealBlock()
	return ok
}

func runSeller(cfg config) (*report, error) {
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
	c := &sellerClient{
		m: m, reg: core.NewProofRegistry(), rng: rng, cur: &Cursor{},
		ak:     ct.AuditorKeyFromSecret(randomElement(rng)),
		issuer: chain.AddressFromString(fmt.Sprintf("issuer-%d", cfg.seed)),
		seller: chain.AddressFromString(fmt.Sprintf("seller-%d", cfg.seed)),
		buyer:  chain.AddressFromString(fmt.Sprintf("buyer-%d", cfg.seed)),
	}
	m.Store = &tracedStore{inner: m.Store, cur: c.cur, afterPut: c.nextLabel}
	m.Submitter = c.submit
	for _, a := range []chain.Address{c.issuer, c.seller, c.buyer} {
		m.Chain.Faucet(a, 1<<60)
	}
	if _, err := m.EnableConfidential(c.issuer, c.ak.PublicKey()); err != nil {
		return nil, err
	}
	// One untimed lifecycle preprocesses every circuit's keys and builds
	// the auditor's discrete-log table.
	if o := c.lifecycle(0, false, rep); o == nil || !c.check(o, rep) {
		return nil, fmt.Errorf("warm-up lifecycle failed: %v", rep.failures)
	}
	rep.attempted = 0
	rep.setupEnd = endSetup()

	// The traced run alternates untraced and traced lifecycles, so both
	// medians come from the same process and inputs stream.
	var tracer *Tracer
	if cfg.trace {
		tracer = NewTracer()
	}
	deadline := rep.setupEnd.Add(cfg.window)
	minOps := uint64(1)
	if cfg.trace {
		minOps = 2
	}
	var untraced, traced []float64
	var gas []float64
	prof := NewAttribution()
	var rtTraced runtimeSample // summed over traced lifecycles
	start := time.Now()
	// A lifecycle starts only if one as long as the last would end
	// within the window, so a run measures for the window, not past it.
	var last time.Duration
	for op := uint64(1); op <= minOps || time.Now().Add(last).Before(deadline); op++ {
		opStart := time.Now()
		tracedOp := cfg.trace && op%2 == 0
		if !tracedOp {
			c.cur.T = nil
			if o := c.lifecycle(op, false, rep); o != nil && c.check(o, rep) {
				untraced = append(untraced, ms(o.elapsed))
			}
			last = time.Since(opStart)
			continue
		}
		c.cur.T = tracer
		rtBefore := readRuntime()
		p, err := startProfile()
		if err != nil {
			return nil, err
		}
		o := c.lifecycle(op, true, rep)
		a, err := p.stop()
		if err != nil {
			return nil, err
		}
		rtAfter := readRuntime()
		rtTraced.allocBytes += rtAfter.allocBytes - rtBefore.allocBytes
		rtTraced.gcCPU += rtAfter.gcCPU - rtBefore.gcCPU
		rtTraced.totalCPU += rtAfter.totalCPU - rtBefore.totalCPU
		prof.Merge(a)
		c.cur.T = nil // the untimed gates are not traced
		if o != nil && c.check(o, rep) {
			traced = append(traced, ms(o.elapsed))
			gas = append(gas, float64(c.gas))
		}
		last = time.Since(opStart)
	}
	elapsed := time.Since(start)
	rep.peakRSS = peakRSSMB()
	rep.ops = untraced
	rep.opsPerS = float64(len(untraced)+len(traced)) / elapsed.Seconds()
	rep.metric("lifecycle_s", "s", scale(untraced, 1e-3))
	rep.tracer = tracer
	if cfg.trace {
		l := rep.layer
		spans := tracer.Spans()
		for _, s := range []string{"mint", "derive", "audit", "fund", "sale"} {
			l["seller."+s+"_ms"] = Summarize(durationsMS(spans, "seller."+s)).Median
		}
		l["chain.submit_ms"] = Summarize(durationsMS(spans, "chain.submit")).Median
		l["storage.put_ms"] = Summarize(durationsMS(spans, "storage.put")).Median
		l["storage.get_us"] = Summarize(durationsUS(spans, "storage.get")).Median
		l["chain.gas_per_lifecycle"] = Summarize(gas).Median
		cpuLayer(l, prof, len(traced))
		runtimeLayer(l, runtimeSample{}, rtTraced, len(traced))
		if u, t := Summarize(untraced).Median, Summarize(traced).Median; u > 0 {
			l["trace.overhead_frac"] = t/u - 1
		}
		for _, b := range spanLayer(l, tracer) {
			rep.fail("trace: %s", b)
		}
	}
	return rep, nil
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func sameDataset(a, b core.Dataset) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(&b[i]) {
			return false
		}
	}
	return true
}
