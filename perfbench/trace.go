package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made, or a block-level event seen
// through a hook the program calls back. Op groups the spans of one
// operation; block-level spans have Op 0.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0: a root
	Op     uint64        `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s *Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, which is how the untraced run pays no tracing cost.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span // guarded by mu; spans[i].ID == i+1
}

func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its ID (0 on a nil tracer).
func (t *Tracer) Begin(op uint64, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Record adds a finished span with explicit times (for intervals measured
// by a hook rather than bracketed by Begin/End).
func (t *Tracer) Record(op uint64, parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

// Spans returns a copy of the finished spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteJSONL writes one span per line.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Cursor is one client's position in its span tree: wrappers on the
// program's interfaces open their spans under whatever the client is
// doing at the moment. Each client goroutine owns its own Cursor.
type Cursor struct {
	T     *Tracer
	Op    uint64
	stack []int
}

// Push opens a child of the current span.
func (c *Cursor) Push(name string) {
	if c == nil || c.T == nil {
		return
	}
	parent := 0
	if n := len(c.stack); n > 0 {
		parent = c.stack[n-1]
	}
	c.stack = append(c.stack, c.T.Begin(c.Op, parent, name))
}

// Pop closes the innermost open span.
func (c *Cursor) Pop() {
	if c == nil || c.T == nil || len(c.stack) == 0 {
		return
	}
	n := len(c.stack) - 1
	c.T.End(c.stack[n])
	c.stack = c.stack[:n]
}

// spanTolerance bounds |self + Σ children − duration| for a consistent
// span: clock reads are monotonic, so the slack only absorbs rounding.
const spanTolerance = time.Microsecond

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its children's intervals cover.
func SelfTimes(spans []Span) map[int]time.Duration {
	kids := children(spans)
	out := make(map[int]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		out[s.ID] = s.Dur() - covered(s, kids[s.ID])
	}
	return out
}

// CheckSpans verifies, for every span with children, that its self time
// plus its children's durations equals its duration within spanTolerance.
// That holds exactly when the children run one after another inside the
// parent; overlapping or escaping children break it. It returns the
// number of parents checked and a description of each violation.
func CheckSpans(spans []Span) (checked int, bad []string) {
	kids := children(spans)
	self := SelfTimes(spans)
	for i := range spans {
		s := &spans[i]
		ks := kids[s.ID]
		if len(ks) == 0 {
			continue
		}
		checked++
		sum := self[s.ID]
		for _, k := range ks {
			sum += k.Dur()
		}
		if diff := sum - s.Dur(); diff > spanTolerance || diff < -spanTolerance {
			bad = append(bad, fmt.Sprintf("span %d %s (op %d): self %v + children %v != duration %v",
				s.ID, s.Name, s.Op, self[s.ID], sum-self[s.ID], s.Dur()))
		}
	}
	return checked, bad
}

func children(spans []Span) map[int][]*Span {
	kids := make(map[int][]*Span)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			kids[p] = append(kids[p], &spans[i])
		}
	}
	return kids
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent *Span, ks []*Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(ks))
	for _, k := range ks {
		a, b := k.Start, k.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, x := range ivs {
		if i == 0 {
			cur = x
			continue
		}
		if x.a <= cur.b {
			if x.b > cur.b {
				cur.b = x.b
			}
			continue
		}
		total += cur.b - cur.a
		cur = x
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// DurationsByName collects the durations of every span with the given
// name.
func DurationsByName(spans []Span, name string) []time.Duration {
	var out []time.Duration
	for i := range spans {
		if spans[i].Name == name {
			out = append(out, spans[i].Dur())
		}
	}
	return out
}
