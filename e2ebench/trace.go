package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op (its plan index); Parent is the index of the
// enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the span name's prefix: "match.reserve" belongs to "match".
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory; they are written out when the run ends.
// All methods are no-ops on a nil tracer, so untraced runs record nothing.
// A tracer is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; op < 0 inherits the enclosing span's operation.
func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
		if op < 0 {
			op = t.spans[parent].Op
		}
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// durations lists the durations of every span named name, in unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

// selfTimes sums each layer's self time: a span's duration minus the part
// its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		self[s.layer()] += time.Duration(s.dur() - child[i])
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
