package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced call at a layer boundary. Times are nanoseconds since
// the tracer's origin; Parent is 0 for an op's root span.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Op     int                `json:"op"`
	Name   string             `json:"name"`
	Start  int64              `json:"startNs"`
	End    int64              `json:"endNs"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: the sandwich solver resolves its two bound collections on
// two goroutines.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	lastID int
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span; end closes it and records it.
func (t *tracer) begin(name string, parent, opID int) span {
	t.mu.Lock()
	t.lastID++
	id := t.lastID
	t.mu.Unlock()
	return span{ID: id, Parent: parent, Op: opID, Name: name, Start: int64(time.Since(t.origin))}
}

func (t *tracer) end(s span, attrs map[string]float64) span {
	s.End = int64(time.Since(t.origin))
	s.Attrs = attrs
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// write stores the spans as one JSON array at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// unionLen returns the total length covered by the half-open intervals
// [start, end), counting overlaps once.
func unionLen(iv [][2]int64) int64 {
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curStart, curEnd int64
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if open && x[0] <= curEnd {
			curEnd = max(curEnd, x[1])
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = x[0], x[1], true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// selfTime is parent's duration minus the part of it its children cover.
// Children may overlap one another (the sandwich bounds run concurrently),
// so their union is subtracted, not their sum.
func selfTime(parent span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		iv = append(iv, [2]int64{max(c.Start, parent.Start), min(c.End, parent.End)})
	}
	return parent.dur() - time.Duration(unionLen(iv))
}
