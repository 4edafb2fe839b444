package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed layer of one operation. Every span of a request (or
// an ingest solve) shares its ID; Parent names the enclosing span of the
// same ID, empty for the root.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps the spans of a traced run in memory; they are written
// out once the run ends. A nil recorder records nothing, which is the
// untraced run.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// ns is t on the recorder's clock.
func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

func (r *recorder) add(id int64, name, parent string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{ID: id, Name: name, Parent: parent, Start: r.ns(start), End: r.ns(end)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// selfTimes returns, per span name, the self time (duration minus the
// durations of its direct children) of every span with that name, in ms.
func (r *recorder) selfTimes() map[string][]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	type key struct {
		id   int64
		name string
	}
	child := make(map[key]int64)
	for _, s := range r.spans {
		if s.Parent != "" {
			child[key{s.ID, s.Parent}] += s.dur()
		}
	}
	out := make(map[string][]float64)
	for _, s := range r.spans {
		self := s.dur() - child[key{s.ID, s.Name}]
		out[s.Name] = append(out[s.Name], float64(self)/1e6)
	}
	return out
}

// write stores the spans as JSON lines, ordered by start time.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].Start < r.spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
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
