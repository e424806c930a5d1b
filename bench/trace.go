package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, or the job or probe that caused it.
// Times are microseconds since the tracer started.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"` // 0 for a root span
	Job     int                `json:"job"`    // spans of one job share it
	Name    string             `json:"name"`
	Detail  string             `json:"detail,omitempty"` // the job kind or probed circuit, on root spans
	StartUS float64            `json:"start_us"`
	EndUS   float64            `json:"end_us"`
	SelfUS  float64            `json:"self_us"` // duration minus the part child spans cover
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. Its methods are safe for
// the daemon workload's concurrent clients.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	jobs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

// newJob returns an identifier for the spans of one job.
func (t *tracer) newJob() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs++
	return t.jobs
}

// add records a finished span and returns its identifier.
func (t *tracer) add(parent, job int, name string, start, end time.Time, counts map[string]float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Job: job, Name: name,
		StartUS: t.us(start), EndUS: t.us(end), Counts: counts,
	})
	return id
}

// reserve allocates the identifier of a span whose end is not yet known, so
// that its children can name it; finish fills the end in.
func (t *tracer) reserve(job int, name string, start time.Time) int {
	return t.add(0, job, name, start, start, nil)
}

func (t *tracer) finish(id int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndUS = t.us(end)
}

func (t *tracer) detail(id int, detail string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Detail = detail
}

// time runs f inside a span and returns how long it took.
func (t *tracer) time(parent, job int, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(parent, job, name, start, end, nil)
	return end.Sub(start)
}

// layerTotal sums the spans of one name.
type layerTotal struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

// traceFile is what a traced run leaves in bench/out.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Host     hostStamp          `json:"host"`
	Metrics  map[string]float64 `json:"per_layer_metrics"`
	Layers   []layerTotal       `json:"layers"`
	Spans    []span             `json:"spans"`
}

// selfTimes fills in every span's self time: its duration minus the union
// of the intervals its children cover (children of one span can overlap,
// as the two workers' waits do).
func (t *tracer) selfTimes() {
	children := map[int][]int{}
	for i := range t.spans {
		if p := t.spans[i].Parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	for i := range t.spans {
		sp := &t.spans[i]
		kids := children[sp.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].StartUS < t.spans[kids[b]].StartUS })
		covered, edge := 0.0, sp.StartUS
		for _, k := range kids {
			lo, hi := max(t.spans[k].StartUS, edge), min(t.spans[k].EndUS, sp.EndUS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		sp.SelfUS = sp.EndUS - sp.StartUS - covered
	}
}

func (t *tracer) write(dir string, f traceFile) (string, error) {
	t.selfTimes()
	byName := map[string]*layerTotal{}
	for i := range t.spans {
		sp := &t.spans[i]
		lt := byName[sp.Name]
		if lt == nil {
			lt = &layerTotal{Name: sp.Name}
			byName[sp.Name] = lt
		}
		lt.Spans++
		lt.TotalUS += sp.EndUS - sp.StartUS
		lt.SelfUS += sp.SelfUS
	}
	for _, lt := range byName {
		f.Layers = append(f.Layers, *lt)
	}
	sort.Slice(f.Layers, func(i, j int) bool { return f.Layers[i].Name < f.Layers[j].Name })
	f.Spans = t.spans

	data, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+f.Workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
