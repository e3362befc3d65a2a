package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// pbw is a minimal protobuf writer for building synthetic profiles.
type pbw struct{ b []byte }

func (w *pbw) varint(x uint64) {
	for x >= 0x80 {
		w.b = append(w.b, byte(x)|0x80)
		x >>= 7
	}
	w.b = append(w.b, byte(x))
}

func (w *pbw) uint(field int, x uint64) { w.varint(uint64(field)<<3 | 0); w.varint(x) }

func (w *pbw) bytes(field int, data []byte) {
	w.varint(uint64(field)<<3 | 2)
	w.varint(uint64(len(data)))
	w.b = append(w.b, data...)
}

func (w *pbw) packed(field int, xs ...uint64) {
	var in pbw
	for _, x := range xs {
		in.varint(x)
	}
	w.bytes(field, in.b)
}

// synthProfile builds a CPU profile whose samples are given as stacks of
// function names (leaf first), nanoseconds and an optional entry label.
func synthProfile(t *testing.T, samples []struct {
	stack []string
	ns    uint64
	label string
}) []byte {
	t.Helper()
	strs := []string{""}
	idx := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := idx[s]; ok {
			return i
		}
		idx[s] = uint64(len(strs))
		strs = append(strs, s)
		return idx[s]
	}
	var p pbw
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pbw
		m.uint(1, str(vt[0]))
		m.uint(2, str(vt[1]))
		p.bytes(1, m.b)
	}
	funcs := map[string]uint64{}
	for _, s := range samples {
		var m pbw
		var locs []uint64
		for _, fn := range s.stack {
			id, ok := funcs[fn]
			if !ok {
				id = uint64(len(funcs) + 1)
				funcs[fn] = id
				var f, loc, line pbw
				f.uint(1, id)
				f.uint(2, str(fn))
				p.bytes(5, f.b)
				line.uint(1, id)
				loc.uint(1, id)
				loc.bytes(4, line.b)
				p.bytes(4, loc.b)
			}
			locs = append(locs, id)
		}
		for _, l := range locs { // location IDs unpacked, values packed
			m.uint(1, l)
		}
		m.packed(2, 1, s.ns)
		if s.label != "" {
			var l pbw
			l.uint(1, str("entry"))
			l.uint(2, str(s.label))
			m.bytes(3, l.b)
		}
		p.bytes(2, m.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributeByPackageAndEntry(t *testing.T) {
	const mod = "github.com/zkdet/zkdet/"
	raw := synthProfile(t, []struct {
		stack []string
		ns    uint64
		label string
	}{
		// Client goroutine: the entry point is on the stack.
		{[]string{mod + "internal/ff.mul", mod + "internal/bn254.G1MSM", mod + "internal/core.(*System).EncryptAndProve"}, 3e9, "pi_t"},
		// Worker goroutine: the kernel closure is on the stack, the entry
		// point is not; the label names it.
		{[]string{mod + "internal/ff.mul", mod + "internal/bn254.msmWithWindow.func1", mod + "internal/parallel.ExecuteWorkers.func1"}, 2e9, "pi_t"},
		// Pairing under single-proof verification.
		{[]string{mod + "internal/bn254.millerLoop", mod + "internal/core.(*System).VerifyEncryption"}, 1e9, ""},
		// Nothing matches and no label: counted in totals only.
		{[]string{"runtime.mallocgc"}, 5e8, ""},
	})
	a, err := Attribute(raw, profileDims)
	if err != nil {
		t.Fatal(err)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if !near(a.TotalS, 6.5) {
		t.Errorf("total %v", a.TotalS)
	}
	if !near(a.ByPackage["internal/ff"], 5) || !near(a.ByPackage["internal/bn254"], 1) || !near(a.ByPackage["runtime"], 0.5) {
		t.Errorf("by package %v", a.ByPackage)
	}
	k, e := a.ByClass["kernel"], a.ByClass["entry"]
	if !near(k["msm"], 5) || !near(k["pairing"], 1) || k["fft"] != 0 {
		t.Errorf("kernels %v", k)
	}
	// The stack wins over the label; the label covers the worker sample.
	if !near(e["pi_e"], 3) || !near(e["pi_t"], 2) || !near(e["verify_e"], 1) {
		t.Errorf("entries %v", e)
	}
	if !near(a.Fallback["entry"], 2) {
		t.Errorf("label fallback %v", a.Fallback)
	}
}

func TestPackageOf(t *testing.T) {
	for in, want := range map[string]string{
		"github.com/zkdet/zkdet/internal/bn254.(*G1Jac).AddAssign": "internal/bn254",
		"github.com/zkdet/zkdet/internal/chain/exec.run.func1":     "internal/chain/exec",
		"runtime.mallocgc":  "runtime",
		"compress/gzip.New": "compress/gzip",
	} {
		if got := packageOf(in); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte{0x0a, 0xff}); err == nil {
		t.Error("truncated profile parsed")
	}
}
