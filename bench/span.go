package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary: the layer-qualified name ("core.strategy_cell"), when it
// ran relative to the recorder's origin, the span that caused it, and the
// workload repetition it belongs to.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Rep     string `json:"rep"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced pass runs the same code with tracing off.
type recorder struct {
	origin time.Time
	rep    string

	mu    sync.Mutex
	spans []span
}

func newRecorder(rep string) *recorder {
	return &recorder{origin: time.Now(), rep: rep}
}

// start opens a span under parent and returns its id; end closes it.
func (r *recorder) start(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, StartNS: now, Rep: r.rep})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// add records a span measured elsewhere, by instants on the recorder's clock.
func (r *recorder) add(parent int, name string, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Rep: r.rep,
		StartNS: start.Sub(r.origin).Nanoseconds(), EndNS: end.Sub(r.origin).Nanoseconds()})
}

// timed runs fn inside a span and returns its duration in seconds.
func (r *recorder) timed(parent int, name string, fn func(id int)) float64 {
	id := r.start(parent, name)
	start := time.Now()
	fn(id)
	d := time.Since(start).Seconds()
	r.end(id)
	return d
}

// selfSeconds returns each span name's summed self time: a span's duration
// minus the part of its interval that its child spans cover. Children that
// overlap (parallel workers) cover their union once, so the self times of a
// parent and its children never count the same wall-clock instant twice at
// the parent's level.
func (r *recorder) selfSeconds() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := map[string]float64{}
	for _, s := range r.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += float64(s.EndNS-s.StartNS-covered) / 1e9
	}
	return self
}

// busySeconds returns each span name's summed duration — the worker-seconds
// a layer was busy, which exceeds wall-clock when spans ran in parallel.
func (r *recorder) busySeconds() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	busy := map[string]float64{}
	for _, s := range r.spans {
		busy[s.Name] += float64(s.EndNS-s.StartNS) / 1e9
	}
	return busy
}

// writeFile dumps the spans as JSON.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	buf, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
