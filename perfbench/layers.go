package main

import (
	"bytes"
	"context"
	"runtime/pprof"
)

// perLayer declares every per-layer metric a traced run reports, with its
// unit. Every workload reports every name; a layer a workload does not
// reach reads 0 there, which is itself the "predicted flat" evidence.
var perLayer = map[string]string{
	// prover kernels and pairing, CPU seconds per operation
	"cpu.msm_s":     "s",
	"cpu.fft_s":     "s",
	"cpu.ff_s":      "s",
	"cpu.pairing_s": "s",
	"cpu.chain_s":   "s",
	// proof entry points, CPU seconds per operation spent under each
	"prove.pi_e_s":  "s",
	"prove.pi_t_s":  "s",
	"prove.pi_p_s":  "s",
	"prove.pi_k_s":  "s",
	"prove.pi_ct_s": "s",
	// seller steps, median wall time
	"seller.mint_ms":   "ms",
	"seller.derive_ms": "ms",
	"seller.audit_ms":  "ms",
	"seller.fund_ms":   "ms",
	"seller.sale_ms":   "ms",
	// single-proof verification inside one audit
	"audit.verify_e_ms":       "ms",
	"audit.verify_t_ms":       "ms",
	"audit.proofs_per_audit":  "count",
	"audit.tokens_per_audit":  "count",
	"audit.trace_us":          "us",
	"audit.unattributed_frac": "ratio",
	// seal-time batch verification
	"seal.verify_ms_p50":         "ms",
	"seal.verify_ms_p99":         "ms",
	"seal.proofs_per_block":      "count",
	"seal.us_per_proof":          "us",
	"seal.evicted":               "count",
	"seal.max_settles_per_block": "count",
	// execution
	"exec.serial_frac":        "ratio",
	"exec.conflicts":          "count",
	"chain.gas_per_exchange":  "gas",
	"chain.gas_per_lifecycle": "gas",
	"chain.submit_ms":         "ms",
	// admission and sealing
	"node.admit_us":         "us",
	"node.inclusion_p50_ms": "ms",
	"node.inclusion_p99_ms": "ms",
	"node.txs_per_block":    "count",
	"node.rejected":         "count",
	"commit_p50_ms":         "ms",
	"commit_p99_ms":         "ms",
	"gen.lag_p99_ms":        "ms",
	// durability
	"wal.hook_ms":           "ms",
	"wal.syncs_per_block":   "count",
	"wal.appends_per_block": "count",
	"snapshot.checkpoints":  "count",
	"storage.put_ms":        "ms",
	// indexer and storage reads
	"indexer.process_ms":       "ms",
	"indexer.events_per_block": "count",
	"indexer.lineage_us":       "us",
	"indexer.ancestors_us":     "us",
	"indexer.exchange_us":      "us",
	"storage.get_us":           "us",
	// Go runtime
	"mem.alloc_mb_per_op": "MB",
	"cpu.gc_frac":         "ratio",
	// the trace itself
	"trace.overhead_frac":   "ratio",
	"trace.spans":           "count",
	"trace.span_violations": "count",
	"cpu.label_frac":        "ratio",
	// input properties
	"input.accounts":          "count",
	"input.pik_repeat_frac":   "ratio",
	"input.blob_repeat_frac":  "ratio",
	"input.audit_repeat_frac": "ratio",
}

// profileDims are the stack classes CPU samples are attributed to. The
// "kernel" classes are found on worker goroutines too (their closures
// carry the kernel's name); the "entry" classes sit on the client's own
// goroutine, so worker samples fall back to the entry label the client
// set when it spawned them.
var profileDims = map[string][]Rule{
	"kernel": {
		{"msm", []string{"internal/bn254.G1MSM", "internal/bn254.msmWithWindow", "internal/bn254.bucketAccumulate"}},
		{"fft", []string{"internal/poly.(*Domain).FFT", "internal/poly.(*Domain).IFFT",
			"internal/poly.(*Domain).FFTCoset", "internal/poly.(*Domain).IFFTCoset", "internal/poly.(*Domain).fft"}},
		{"pairing", []string{"internal/bn254.PairingCheck", "internal/bn254.PairingCheckPrecomp",
			"internal/bn254.Pair", "internal/bn254.PairFixed", "internal/bn254.millerLoop",
			"internal/bn254.millerLoopPrecomp", "internal/bn254.finalExponentiation"}},
	},
	"entry": {
		{"pi_e", []string{"internal/core.(*System).EncryptAndProve"}},
		{"pi_t", []string{"internal/core.(*System).proveDuplicationWith", "internal/core.(*System).proveAggregationWith",
			"internal/core.(*System).provePartitionWith", "internal/core.(*System).proveProcessingWith"}},
		{"pi_p", []string{"internal/core.(*Seller).ProveData"}},
		{"pi_k", []string{"internal/core.(*Seller).NegotiateKey"}},
		{"pi_ct", []string{"internal/ct.Prove"}},
		{"verify_e", []string{"internal/core.(*System).VerifyEncryption"}},
		{"verify_t", []string{"internal/core.(*System).VerifyTransform"}},
		{"seal_verify", []string{"internal/contracts.(*BlockProofChecker).VerifyBatch"}},
	},
}

// cpuProfile is one running CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and attributes its samples.
func (p *cpuProfile) stop() (*Attribution, error) {
	pprof.StopCPUProfile()
	return Attribute(p.buf.Bytes(), profileDims)
}

// setEntry labels the calling goroutine (and goroutines it spawns from
// now on) with a proof entry point, for samples whose stack cannot show
// it.
func setEntry(entry string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("entry", entry)))
}

// cpuLayer fills the CPU attribution metrics per operation.
func cpuLayer(layer map[string]float64, a *Attribution, ops int) {
	if ops <= 0 || a == nil {
		return
	}
	per := func(s float64) float64 { return s / float64(ops) }
	k, e := a.ByClass["kernel"], a.ByClass["entry"]
	layer["cpu.msm_s"] = per(k["msm"])
	layer["cpu.fft_s"] = per(k["fft"])
	layer["cpu.pairing_s"] = per(k["pairing"])
	layer["cpu.ff_s"] = per(a.ByPackage["internal/ff"] + a.ByPackage["internal/fr"])
	layer["cpu.chain_s"] = per(a.ByPackage["internal/chain"] + a.ByPackage["internal/chain/exec"])
	layer["prove.pi_e_s"] = per(e["pi_e"])
	layer["prove.pi_t_s"] = per(e["pi_t"])
	layer["prove.pi_p_s"] = per(e["pi_p"])
	layer["prove.pi_k_s"] = per(e["pi_k"])
	layer["prove.pi_ct_s"] = per(e["pi_ct"])
	if a.TotalS > 0 {
		layer["cpu.label_frac"] = a.Fallback["entry"] / a.TotalS
	}
}

// spanLayer fills the trace bookkeeping metrics and returns the span
// violations found.
func spanLayer(layer map[string]float64, tr *Tracer) []string {
	spans := tr.Spans()
	_, bad := CheckSpans(spans)
	layer["trace.spans"] = float64(len(spans))
	layer["trace.span_violations"] = float64(len(bad))
	return bad
}

func durationsMS(spans []Span, name string) []float64 {
	var out []float64
	for _, d := range DurationsByName(spans, name) {
		out = append(out, ms(d))
	}
	return out
}

func durationsUS(spans []Span, name string) []float64 {
	var out []float64
	for _, d := range DurationsByName(spans, name) {
		out = append(out, us(d))
	}
	return out
}
