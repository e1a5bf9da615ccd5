package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call: the benchmark records it around a call into
// a pipeline layer, from outside the program. Times are nanoseconds
// since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = top level
	Iter   int    `json:"iter"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps every span of a run in memory; write dumps them once
// the run ends. Safe for concurrent use: server-side spans of the fleet
// workload are recorded from handler goroutines.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// start opens a span and returns its ID (IDs start at 1).
func (r *recorder) start(name string, parent, iter int) int {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Iter: iter, Name: name, Start: t})
	return id
}

func (r *recorder) end(id int) {
	t := r.now()
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

func (r *recorder) get(id int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// total sums the durations of iteration iter's spans named name, in
// seconds.
func (r *recorder) total(iter int, name string) float64 {
	var ns int64
	for _, s := range r.snapshot() {
		if s.Iter == iter && s.Name == name {
			ns += s.dur()
		}
	}
	return float64(ns) / 1e9
}

// write dumps every span as JSON to path.
func (r *recorder) write(path string) error {
	data, err := json.MarshalIndent(r.snapshot(), "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfTime returns span id's duration minus the part of its interval
// that its direct children cover. Children may overlap (concurrent
// server handlers); the covered part is the union of their intervals,
// clipped to the parent's.
func selfTime(spans []span, id int) (int64, error) {
	var parent *span
	var kids [][2]int64
	for i := range spans {
		s := &spans[i]
		if s.ID == id {
			parent = s
		}
	}
	if parent == nil {
		return 0, fmt.Errorf("span %d not recorded", id)
	}
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.Start, parent.Start), min(s.End, parent.End)
		if hi > lo {
			kids = append(kids, [2]int64{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	var covered, reach int64
	reach = parent.Start
	for _, k := range kids {
		lo := max(k[0], reach)
		if k[1] > lo {
			covered += k[1] - lo
			reach = k[1]
		}
	}
	return parent.dur() - covered, nil
}

// replay runs a sequence of public calls, one span each, under one
// parent span; the first failing call stops the sequence and its error
// is kept.
type replay struct {
	rec          *recorder
	parent, iter int
	current      int // the running step's span ID
	err          error
}

func (p *replay) step(name string, call func() error) {
	if p.err != nil {
		return
	}
	id := p.rec.start(name, p.parent, p.iter)
	p.current = id
	err := call()
	p.rec.end(id)
	if err != nil {
		p.err = fmt.Errorf("%s: %w", name, err)
	}
}
