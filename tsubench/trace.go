package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public function. Spans of one update share its
// update id; parent is the id of the span that caused this one (0 for
// a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Update int64  `json:"update,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory, one buffer per recording goroutine so
// the hot path takes no lock; a nil tracer records nothing.
type tracer struct {
	epoch time.Time
	bufs  [][]span
}

// postLoad is the buffer of the layer calls made after the load phase.
const postLoad = clients

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), bufs: make([][]span, clients+1)}
}

// begin opens a span in buffer b and returns its id (0 when off).
// Ids are unique across buffers: the buffer index rides in the high
// bits.
func (t *tracer) begin(b int, name string, parent, update int64) int64 {
	if t == nil {
		return 0
	}
	id := int64(b)<<40 | int64(len(t.bufs[b])+1)
	t.bufs[b] = append(t.bufs[b], span{ID: id, Parent: parent, Update: update, Name: name, Start: int64(time.Since(t.epoch))})
	return id
}

// end closes span id of buffer b.
func (t *tracer) end(b int, id int64) {
	if t == nil {
		return
	}
	t.bufs[b][id&(1<<40-1)-1].End = int64(time.Since(t.epoch))
}

// dur returns the duration of the closed span id of buffer b.
func (t *tracer) dur(b int, id int64) time.Duration {
	return t.bufs[b][id&(1<<40-1)-1].dur()
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, b := range t.bufs {
		for _, s := range b {
			if s.Name == name {
				out = append(out, s.dur())
			}
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, b := range t.bufs {
		for _, s := range b {
			if err := enc.Encode(s); err != nil {
				f.Close() //nolint:errcheck // already failing
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // already failing
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
