package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the in-memory span log of one traced run; spans past it
// are counted as dropped rather than recorded.
const maxSpans = 1 << 20

// span is one benchmark-side call into a layer's public API: Listen, Dial,
// Accept, Write, Read or Close, or a root span covering one flow or one
// transfer. Times are nanoseconds since the tracer's origin.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Flow   int64  `json:"flow"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; a nil *tracer records nothing, which is
// how untraced runs call it.
type tracer struct {
	origin  time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now()}
	t.nextID.Store(1 << 40) // IDs below are reserved for per-flow root spans
	return t
}

// newID returns a fresh span ID (0 from a nil tracer).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores the span [start, end] under the given ID (0 allocates
// one) and returns its ID.
func (t *tracer) record(id, parent, flow int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Flow: flow, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return id
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every recorded span, one JSON object per line.
func (t *tracer) writeJSONL(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return w.Flush()
}

// spanStats summarises the spans of one name whose start falls inside
// [from, to) on the tracer's timeline.
type spanStats struct {
	durs  []float64 // milliseconds
	total time.Duration
}

func (t *tracer) stats(name string, from, to time.Time) spanStats {
	var st spanStats
	if t == nil {
		return st
	}
	lo, hi := from.Sub(t.origin).Nanoseconds(), to.Sub(t.origin).Nanoseconds()
	for _, s := range t.snapshot() {
		if s.Name != name || s.Start < lo || s.Start >= hi {
			continue
		}
		d := time.Duration(s.End - s.Start)
		st.durs = append(st.durs, float64(d)/1e6)
		st.total += d
	}
	return st
}
