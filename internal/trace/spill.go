package trace

import (
	"encoding/json"
	"io"
)

// spillSink is the shared streaming destination of a tracer's buffers.
// Emission only reaches it when a ring fills, so the encoding cost is
// amortised over thousands of events per flush.
type spillSink struct {
	w   io.Writer
	enc *json.Encoder
	err error // first write error; later flushes become no-ops

	flushed uint64 // events written out across all buffers
}

// write streams events to the sink as JSON lines (one ChromeEvent object
// per line, the format `jq`-style tooling and Perfetto's JSON-lines
// importer consume). Events carry the buffer's tid so interleaved flushes
// from different contexts stay attributable.
func (s *spillSink) write(events []Event) {
	if s.err != nil {
		return
	}
	for i := range events {
		ev := &events[i]
		if s.err = s.enc.Encode(ChromeEvent{
			Name: ev.Name,
			Cat:  ev.Kind.Category(),
			Ph:   "X",
			TS:   float64(ev.TS) / 1e3,
			Dur:  float64(ev.Dur) / 1e3,
			TID:  ev.TID,
			Args: &ChromeArgs{Core: ev.Core, Arg1: ev.Arg1, Arg2: ev.Arg2},
		}); s.err != nil {
			return
		}
		s.flushed++
	}
}

// SetSpill switches the tracer to streaming mode: when a context's ring
// buffer fills, its events are flushed to w as Chrome-format JSON lines
// instead of overwriting the oldest entries, so long runs keep every event
// and Snapshot.Dropped stays zero. The ring capacity acts as the flush
// batch size and is hard-capped at DefaultEventsPerContext in this mode —
// the ring is a staging buffer, not the archive, so growing it past the
// default only adds memory without keeping more history.
//
// Call it right after New, before any buffers exist; buffers created
// earlier keep the ring-overwrite behaviour. Merge still returns whatever
// remains unflushed in the rings (the tail of the run).
func (t *Tracer) SetSpill(w io.Writer) {
	if t.perBuf > DefaultEventsPerContext {
		t.perBuf = DefaultEventsPerContext
	}
	t.spill = &spillSink{w: w, enc: json.NewEncoder(w)}
}

// SpillErr reports the first error encountered while streaming spilled
// events, or nil (also when spilling is disabled).
func (t *Tracer) SpillErr() error {
	if t.spill == nil {
		return nil
	}
	return t.spill.err
}

// Spilled reports how many events have been streamed out so far.
func (t *Tracer) Spilled() uint64 {
	if t.spill == nil {
		return 0
	}
	return t.spill.flushed
}
