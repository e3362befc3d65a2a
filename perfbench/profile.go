package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message.
// The decoder below reads only the fields attribution needs: samples
// (location IDs, values, labels), locations (their line → function
// entries) and functions (names), plus the string table.

type profSample struct {
	locs   []uint64
	values []int64
	labels map[string]string
}

type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location → function IDs, innermost first
	funcNames map[uint64]string
	// cpuIndex is the position of the cpu/nanoseconds value in a sample.
	cpuIndex int
}

var errProto = errors.New("profile: malformed protobuf")

type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errProto
}

// field reads one key and returns the field number, wire type, the varint
// value (wire type 0) or the length-delimited payload (wire type 2).
func (p *pbuf) field() (num int, wt int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errProto
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, errProto
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errProto
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("%w: wire type %d", errProto, wt)
	}
	return num, wt, v, data, err
}

// repeatedVarints appends a repeated integer field that may be encoded
// packed (wire type 2) or one element per key (wire type 0).
func repeatedVarints(dst []uint64, wt int, v uint64, data []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	q := pbuf{data}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// scalars decodes a message whose fields of interest are single varints,
// returning them by field number.
func scalars(data []byte) (map[int]uint64, error) {
	out := map[int]uint64{}
	q := pbuf{data}
	for len(q.b) > 0 {
		n, wt, v, _, err := q.field()
		if err != nil {
			return nil, err
		}
		if wt == 0 {
			out[n] = v
		}
	}
	return out, nil
}

func parseProfile(raw []byte) (*profile, error) {
	if len(raw) > 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs, values []uint64
		labels       []map[int]uint64 // key (1) and str (2) string indices
	}
	var (
		samples     []rawSample
		sampleTypes []map[int]uint64 // type (1) and unit (2) string indices
		strs        []string
		funcNameIdx = map[uint64]uint64{}
		pr          = &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		num, _, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type
			vt, err := scalars(data)
			if err != nil {
				return nil, err
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample
			var s rawSample
			q := pbuf{data}
			for len(q.b) > 0 {
				n, wt, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = repeatedVarints(s.locs, wt, v, d)
				case 2:
					s.values, err = repeatedVarints(s.values, wt, v, d)
				case 3:
					var l map[int]uint64
					if l, err = scalars(d); err == nil {
						s.labels = append(s.labels, l)
					}
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location: id (1) and line entries (4), each naming a function (1)
			var id uint64
			var funcs []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4:
					line, err := scalars(d)
					if err != nil {
						return nil, err
					}
					funcs = append(funcs, line[1])
				}
			}
			pr.locFuncs[id] = funcs
		case 5: // function: id (1) and name (2)
			f, err := scalars(data)
			if err != nil {
				return nil, err
			}
			funcNameIdx[f[1]] = f[2]
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for id, idx := range funcNameIdx {
		pr.funcNames[id] = str(idx)
	}
	pr.cpuIndex = -1
	for i, st := range sampleTypes {
		if str(st[2]) == "nanoseconds" {
			pr.cpuIndex = i
		}
	}
	if pr.cpuIndex < 0 {
		return nil, fmt.Errorf("%w: no nanoseconds sample type", errProto)
	}
	for _, s := range samples {
		ps := profSample{locs: s.locs}
		for _, v := range s.values {
			ps.values = append(ps.values, int64(v))
		}
		for _, l := range s.labels {
			if ps.labels == nil {
				ps.labels = map[string]string{}
			}
			ps.labels[str(l[1])] = str(l[2])
		}
		pr.samples = append(pr.samples, ps)
	}
	return pr, nil
}

// frames returns a sample's function names, leaf first, with inlined
// functions expanded innermost first.
func (pr *profile) frames(s *profSample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, f := range pr.locFuncs[loc] {
			out = append(out, pr.funcNames[f])
		}
	}
	return out
}

// modulePrefix is stripped from package paths in reports.
const modulePrefix = "github.com/zkdet/zkdet/"

// packageOf returns the package path of a Go symbol name, relative to the
// module for the module's own packages: "internal/bn254" for
// "github.com/zkdet/zkdet/internal/bn254.(*G1Jac).Add".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return strings.TrimPrefix(fn, modulePrefix)
	}
	return strings.TrimPrefix(fn[:slash+1+dot], modulePrefix)
}

// Rule names one class of a dimension (a kernel, a proof entry point)
// and the symbols that mark it on a stack.
type Rule struct {
	Class string
	// Funcs are symbol names relative to the module; a frame matches when
	// it equals one or is a closure of one (name + ".func...").
	Funcs []string
}

func (r *Rule) matches(frame string) bool {
	f := strings.TrimPrefix(frame, modulePrefix)
	for _, want := range r.Funcs {
		if f == want || strings.HasPrefix(f, want+".func") {
			return true
		}
	}
	return false
}

// Attribution is CPU time from one profile, split three ways: by the
// package of the leaf frame (self time), and by the first class from the
// leaf up in each dimension of rules.
type Attribution struct {
	TotalS    float64
	ByPackage map[string]float64
	// ByClass maps dimension → class → seconds. A sample whose stack shows
	// no class of a dimension falls back to its pprof label named after
	// the dimension, if any (worker goroutines inherit the labels of the
	// goroutine that spawned them, but not its stack).
	ByClass map[string]map[string]float64
	// Fallback counts, per dimension, the seconds attributed by label.
	Fallback map[string]float64
}

// Attribute parses a CPU profile and attributes its samples.
func Attribute(raw []byte, dims map[string][]Rule) (*Attribution, error) {
	pr, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	a := NewAttribution()
	for dim := range dims {
		a.ByClass[dim] = map[string]float64{}
	}
	for i := range pr.samples {
		s := &pr.samples[i]
		if pr.cpuIndex >= len(s.values) {
			continue
		}
		sec := float64(s.values[pr.cpuIndex]) / 1e9
		a.TotalS += sec
		frames := pr.frames(s)
		if len(frames) > 0 {
			a.ByPackage[packageOf(frames[0])] += sec
		}
		for dim, rules := range dims {
			if class := classify(frames, rules); class != "" {
				a.ByClass[dim][class] += sec
			} else if l := s.labels[dim]; l != "" {
				a.ByClass[dim][l] += sec
				a.Fallback[dim] += sec
			}
		}
	}
	return a, nil
}

// classify returns the class of the frame nearest the leaf that matches
// any rule.
func classify(frames []string, rules []Rule) string {
	for _, f := range frames {
		for i := range rules {
			if rules[i].matches(f) {
				return rules[i].Class
			}
		}
	}
	return ""
}

// Merge adds b into a.
func (a *Attribution) Merge(b *Attribution) {
	a.TotalS += b.TotalS
	for k, v := range b.ByPackage {
		a.ByPackage[k] += v
	}
	for dim, m := range b.ByClass {
		if a.ByClass[dim] == nil {
			a.ByClass[dim] = map[string]float64{}
		}
		for k, v := range m {
			a.ByClass[dim][k] += v
		}
	}
	for k, v := range b.Fallback {
		a.Fallback[k] += v
	}
}

// NewAttribution returns an empty attribution to merge into.
func NewAttribution() *Attribution {
	return &Attribution{ByPackage: map[string]float64{}, ByClass: map[string]map[string]float64{}, Fallback: map[string]float64{}}
}
