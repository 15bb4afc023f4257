package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory until the run ends. A
// span is one call the benchmark timed at a layer boundary: its name, start,
// end, the span that caused it, and the id of the job or arm it belongs to.
// A nil tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	name       string
	id         int
	parent     int // index of the parent span, -1 at the top
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record appends a finished span and returns its index, the parent handle
// of spans it caused. On a nil tracer it returns -1 and records nothing.
func (t *tracer) record(name string, id, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	return len(t.spans) - 1
}

// begin reserves a span whose end is not known yet (a parent recorded
// before its children); end closes it.
func (t *tracer) begin(name string, id, parent int, start time.Time) int {
	return t.record(name, id, parent, start, start)
}

func (t *tracer) end(idx int, end time.Time) {
	if t == nil || idx < 0 {
		return
	}
	t.mu.Lock()
	t.spans[idx].end = end.Sub(t.epoch)
	t.mu.Unlock()
}

// writeChrome writes the spans as Chrome trace-event JSON, the format
// exec.Runner.WriteTrace emits: one complete ("X") event per span, one
// thread row per job or arm id, loadable in chrome://tracing and Perfetto.
func (t *tracer) writeChrome(path string, meta string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\"otherData\":%s,\"traceEvents\":[\n", meta)
	t.mu.Lock()
	for i, s := range t.spans {
		if i > 0 {
			w.WriteString(",\n")
		}
		parent := ""
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		fmt.Fprintf(w, `{"name":%q,"cat":"perfbench","ph":"X","ts":%.3f,"dur":%.3f,"pid":0,"tid":%d,"args":{"id":%d,"span":%d,"parent":%d,"parent_name":%q}}`,
			s.name, us(s.start), us(s.end-s.start), s.id, s.id, i, s.parent, parent)
	}
	t.mu.Unlock()
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
