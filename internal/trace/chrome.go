package trace

import (
	"encoding/json"
	"io"
)

// ChromeEvent is one trace_event in the Chrome/Perfetto JSON object
// format. All events are "complete" events (ph == "X"); timestamps and
// durations are simulated microseconds, as the format requires.
type ChromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat"`
	Ph   string      `json:"ph"`
	TS   float64     `json:"ts"`
	Dur  float64     `json:"dur"`
	PID  int         `json:"pid"`
	TID  int         `json:"tid"`
	Args *ChromeArgs `json:"args,omitempty"`
}

// ChromeArgs carries the kind-specific payload of an event.
type ChromeArgs struct {
	Core int    `json:"core"`
	Arg1 uint64 `json:"arg1,omitempty"`
	Arg2 uint64 `json:"arg2,omitempty"`
}

// ChromeTrace is the top-level JSON object chrome://tracing and Perfetto
// load directly.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeTraceOf merges one or more tracers into a single Chrome trace.
// Each tracer becomes one process (pid = its index), so several simulated
// machines — e.g. every machine an experiment sweep builds — can land in
// one file with their event streams kept apart.
func ChromeTraceOf(tracers ...*Tracer) *ChromeTrace {
	ct := &ChromeTrace{DisplayTimeUnit: "ns", TraceEvents: []ChromeEvent{}}
	for pid, t := range tracers {
		for _, ev := range t.Merge() {
			ct.TraceEvents = append(ct.TraceEvents, chromeEvent(ev, pid))
		}
	}
	return ct
}

// chromeEvent converts one event of process pid to the Chrome format.
func chromeEvent(ev Event, pid int) ChromeEvent {
	return ChromeEvent{
		Name: ev.Name,
		Cat:  ev.Kind.Category(),
		Ph:   "X",
		TS:   float64(ev.TS) / 1e3,
		Dur:  float64(ev.Dur) / 1e3,
		PID:  pid,
		TID:  ev.TID,
		Args: &ChromeArgs{Core: ev.Core, Arg1: ev.Arg1, Arg2: ev.Arg2},
	}
}

// Write encodes the trace as JSON.
func (ct *ChromeTrace) Write(w io.Writer) error {
	return json.NewEncoder(w).Encode(ct)
}

// WriteChromeJSON writes this tracer's merged events as Chrome trace JSON.
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	return ChromeTraceOf(t).Write(w)
}
