package sim

import (
	"reflect"
	"testing"
)

// TestPerfAddCoversAllFields is the field-drift guard for the
// hand-maintained Perf.Add: every uint64 counter must be aggregated, so a
// field added without its Add line fails here instead of silently
// vanishing from aggregated runs. Same pattern as the bench package's
// TestCacheKeyCoversOptions.
func TestPerfAddCoversAllFields(t *testing.T) {
	var src Perf
	sv := reflect.ValueOf(&src).Elem()
	tp := sv.Type()
	for i := 0; i < sv.NumField(); i++ {
		if tp.Field(i).Name == "_" {
			continue // a blank field cannot be set, read or aggregated
		}
		if tp.Field(i).Type.Kind() != reflect.Uint64 {
			t.Fatalf("Perf.%s is %s; the Add/Reset guard only understands uint64 counters — extend it",
				tp.Field(i).Name, tp.Field(i).Type)
		}
		// Distinct nonzero values so swapped field pairs would also fail.
		sv.Field(i).SetUint(uint64(i + 1))
	}

	var dst Perf
	dst.Add(&src)
	dv := reflect.ValueOf(&dst).Elem()
	for i := 0; i < dv.NumField(); i++ {
		if tp.Field(i).Name == "_" {
			continue
		}
		if got, want := dv.Field(i).Uint(), sv.Field(i).Uint(); got != want {
			t.Errorf("Perf.Add drops or misroutes field %s: got %d, want %d",
				tp.Field(i).Name, got, want)
		}
	}

	// Add must accumulate, not overwrite.
	dst.Add(&src)
	for i := 0; i < dv.NumField(); i++ {
		if tp.Field(i).Name == "_" {
			continue
		}
		if got, want := dv.Field(i).Uint(), 2*sv.Field(i).Uint(); got != want {
			t.Errorf("Perf.Add does not accumulate field %s: got %d, want %d",
				tp.Field(i).Name, got, want)
		}
	}
}

// TestPerfResetCoversAllFields pins Reset to full zeroing (it currently
// assigns the zero struct, which cannot drift, but the guard keeps any
// future field-by-field rewrite honest).
func TestPerfResetCoversAllFields(t *testing.T) {
	var p Perf
	pv := reflect.ValueOf(&p).Elem()
	for i := 0; i < pv.NumField(); i++ {
		if pv.Type().Field(i).Name != "_" {
			pv.Field(i).SetUint(uint64(i + 1))
		}
	}
	p.Reset()
	for i := 0; i < pv.NumField(); i++ {
		if pv.Type().Field(i).Name != "_" && pv.Field(i).Uint() != 0 {
			t.Errorf("Perf.Reset leaves field %s = %d", pv.Type().Field(i).Name, pv.Field(i).Uint())
		}
	}
}
