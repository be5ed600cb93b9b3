package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer: a pass, a run, or
// a public entry point (machine.New, jvm.New, Spec.Run, smr.Run, Collect,
// verify). Start and dur are host time since the recorder was created.
type span struct {
	name   string
	run    int // index into recorder.runs; -1 for a pass
	parent int // index of the enclosing span; -1 at top level
	start  time.Duration
	dur    time.Duration
}

// recorder times the benchmark's calls into the simulator. It always returns
// durations; it keeps spans only while on, so untraced passes pay two
// clock reads per call and nothing else. Spans stay in memory until the
// run ends.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int    // stack of open span indices
	runs  []string // run labels, indexed by span.run
	run   int      // run id stamped on new spans
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), run: -1} }

// mark is an open span: its index (-1 when not kept) and start time.
type mark struct {
	i  int
	t0 time.Time
}

// begin opens a span named name under the innermost open one.
func (r *recorder) begin(name string) mark {
	now := time.Now()
	if !r.on {
		return mark{-1, now}
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, run: r.run, parent: parent, start: now.Sub(r.epoch)})
	i := len(r.spans) - 1
	r.open = append(r.open, i)
	return mark{i, now}
}

// end closes m and returns its duration in seconds.
func (r *recorder) end(m mark) float64 {
	d := time.Since(m.t0)
	if m.i >= 0 {
		r.spans[m.i].dur = d
		r.open = r.open[:len(r.open)-1]
	}
	return d.Seconds()
}

// beginRun opens a run span and stamps it, and every span under it, with
// a new run id carrying label.
func (r *recorder) beginRun(label string) mark {
	if r.on {
		r.runs = append(r.runs, label)
		r.run = len(r.runs) - 1
	}
	return r.begin("run")
}

// endRun closes a run span opened by beginRun.
func (r *recorder) endRun(m mark) float64 {
	r.run = -1
	return r.end(m)
}

// selfTimes sums, per span name, the count, total duration and self time
// (duration minus the part its child spans cover), in seconds.
func (r *recorder) selfTimes() map[string]spanTotals {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.dur
		}
	}
	out := map[string]spanTotals{}
	for i, s := range r.spans {
		t := out[s.name]
		t.Count++
		t.TotalS += s.dur.Seconds()
		t.SelfS += (s.dur - child[i]).Seconds()
		out[s.name] = t
	}
	return out
}

// spanTotals is one span name's row in the per-layer JSON.
type spanTotals struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto): complete events on one thread, so nesting shows the call
// tree pass → run → entry point → Collect.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		args := map[string]any{"id": i, "parent": s.parent}
		if s.run >= 0 {
			args["run"] = r.runs[s.run]
		}
		events[i] = event{Name: s.name, Ph: "X", Pid: 1, Tid: 1, Args: args,
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64(s.dur.Nanoseconds()) / 1e3}
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].Ts < events[b].Ts })
	return writeJSON(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
