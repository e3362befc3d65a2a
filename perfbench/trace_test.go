package main

import (
	"testing"
	"time"
)

// span builds a span with times in milliseconds.
func span(id, parent int, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Op: 1, Name: "s", Start: start * time.Millisecond, End: end * time.Millisecond}
}

func TestSelfTimeSequentialChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, 0, 100),
		span(2, 1, 10, 30),
		span(3, 1, 40, 70),
		span(4, 3, 45, 50), // grandchild: counts against span 3 only
	}
	self := SelfTimes(spans)
	if self[1] != 50*time.Millisecond || self[2] != 20*time.Millisecond || self[3] != 25*time.Millisecond || self[4] != 5*time.Millisecond {
		t.Fatalf("self times %v", self)
	}
	checked, bad := CheckSpans(spans)
	if checked != 2 || len(bad) != 0 {
		t.Fatalf("checked %d parents, violations %v", checked, bad)
	}
}

func TestCheckSpansFlagsOverlapAndEscape(t *testing.T) {
	overlap := []Span{span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 40, 70)}
	if self := SelfTimes(overlap); self[1] != 40*time.Millisecond {
		t.Fatalf("overlapping children cover 60, self %v", self[1])
	}
	if _, bad := CheckSpans(overlap); len(bad) != 1 {
		t.Errorf("overlapping children not flagged: %v", bad)
	}
	escape := []Span{span(1, 0, 0, 100), span(2, 1, 90, 120)}
	if self := SelfTimes(escape); self[1] != 90*time.Millisecond {
		t.Fatalf("escaping child clipped to 10, self %v", self[1])
	}
	if _, bad := CheckSpans(escape); len(bad) != 1 {
		t.Errorf("escaping child not flagged: %v", bad)
	}
}

func TestCursorNestsAndNilTracerRecordsNothing(t *testing.T) {
	tr := NewTracer()
	c := &Cursor{T: tr, Op: 9}
	c.Push("op")
	c.Push("step")
	c.Pop()
	c.Pop()
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Parent != 0 || spans[1].Op != 9 {
		t.Fatalf("spans %+v", spans)
	}
	off := &Cursor{}
	off.Push("op")
	off.Pop()
	if len(off.stack) != 0 {
		t.Error("untraced cursor kept a span")
	}
}
