package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// The traced run records spans in memory around every call the
// benchmark makes into a layer — vmos.Build, core.New, BootVM /
// CreateVM, Clone, Run, DestroyVM, each HTTP request on the client
// side and the API handler on the server side — and writes them out
// when the run ends. Spans of one lifecycle or one VM run share a
// trace id; an HTTP request carries its span id to the handler in a
// header so the two link up across the connection.

// Request headers linking a client span to its handler span.
const (
	hdrTrace = "X-Bench-Trace"
	hdrSpan  = "X-Bench-Span"
)

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // 0 for a root span
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer collects spans from any goroutine. A nil *tracer is the
// untraced state: it records nothing and hands out span id 0, so
// workload code calls it unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span id, so children can name their parent before the
// parent span ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records the finished span id (0 reserves a fresh one).
func (t *tracer) add(id, parent int64, trace, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	s := span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a span and returns its duration; the duration is
// measured whether or not the tracer is on.
func (t *tracer) timed(parent int64, trace, name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	t.add(0, parent, trace, name, t0, t1)
	return t1.Sub(t0)
}

// selfTimeLayers lists the layers whose self time the traced run
// reports. Spans map onto them by name (see layerOf).
var selfTimeLayers = []string{
	"vmos.build", "vmos.boot", "core.new", "core.create", "core.clone",
	"core.run", "core.destroy", "bare.run", "http.transport", "monitor.handler", "bench",
}

// layerOf names the layer a span's self time belongs to: a client
// request's self time is its round trip minus the handler (the
// transport), and the benchmark's own bracketing spans are "bench".
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "http."):
		return "http.transport"
	case name == "round", name == "setup", name == "run", name == "check",
		name == "lifecycle", name == "bare":
		return "bench"
	}
	return name
}

// selfTime sums, per layer, each span's duration minus the part of it
// its children cover.
func selfTime(spans []span) map[string]time.Duration {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		covered := int64(0)
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		cur := s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[layerOf(s.Name)] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeSpans saves spans as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
