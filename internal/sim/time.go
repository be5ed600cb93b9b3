// Package sim provides the foundation of the simulated machine: simulated
// time, per-thread clocks, the hardware cost model, and perf-style event
// counters. Every other subsystem (MMU, caches, kernel, collectors) charges
// its work against a sim.Clock using parameters from a sim.CostModel, so all
// reported results are deterministic simulated durations rather than
// wall-clock measurements.
package sim

import "fmt"

// Time is a simulated duration or instant, in nanoseconds. It is a float64
// because individual charged operations can cost fractions of a nanosecond
// (for example one word of a bandwidth-limited copy).
type Time float64

// Common simulated durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1e3
	Millisecond Time = 1e6
	Second      Time = 1e9
)

// Seconds returns the duration in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Milliseconds returns the duration in milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / 1e6 }

// Microseconds returns the duration in microseconds.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

// Nanoseconds returns the duration in nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) }

// String formats the duration with an adaptive unit, e.g. "1.234ms".
func (t Time) String() string {
	switch abs := t.abs(); {
	case abs >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case abs >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case abs >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	default:
		return fmt.Sprintf("%.1fns", float64(t))
	}
}

func (t Time) abs() Time {
	if t < 0 {
		return -t
	}
	return t
}

// Max returns the larger of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the smaller of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Clock accumulates simulated time for one logical thread of execution
// (a mutator thread, a GC worker, or a microbenchmark driver). A Clock is
// not safe for concurrent use; each simulated thread owns its own.
//
// Internally the clock is fixed-point: whole nanoseconds in an int64 plus
// a sub-nanosecond remainder in units of 2^-32 ns. Every charged duration
// is quantised to that grid exactly once, on entry, and then accumulated
// with integer arithmetic — which is associative and commutative, unlike
// float64 addition. That is the property epoch-batched settlement rests
// on: charging a quantum d once with count n (AdvanceN) leaves the clock
// in bit-for-bit the same state as n separate Advance(d) calls, however
// the sequence is split or regrouped. A float64-accumulating clock cannot
// offer that (N small charges drift from one batched charge of the same
// total), which was the rounding-divergence bug this representation fixes.
type Clock struct {
	ns   int64  // whole simulated nanoseconds
	frac uint64 // sub-ns remainder in 2^-32 ns units; always < 1<<32
}

// fracBits is the sub-nanosecond resolution of the clock's fixed-point
// grid: durations are truncated to multiples of 2^-fracBits ns (~2.3e-10
// ns), far below anything a cost model charges or a figure prints.
const fracBits = 32

// quantize splits a non-negative duration into whole ns and 2^-32 ns
// units. The split is exact for the whole part and truncating for the
// remainder, so quantize is a pure function of the float64 bits of d —
// the same d always lands on the same grid point.
//
// Below 2^31 ns one multiply does it: scaling by 2^(fracBits) is exact in
// float64 and the result stays under 2^63, so truncating it to an integer
// truncates the whole part and the remainder exactly as the two-step form
// below does (d - trunc(d) is exact too). Larger values and NaN take the
// two-step form.
func quantize(d Time) (int64, uint64) {
	if d >= 0 && d < 1<<31 {
		x := int64(d * (1 << fracBits))
		return x >> fracBits, uint64(x) & (1<<fracBits - 1)
	}
	w := int64(d)
	return w, uint64((float64(d) - float64(w)) * (1 << fracBits))
}

// unquantize reconstructs the nearest float64 instant.
func unquantize(ns int64, frac uint64) Time {
	return Time(float64(ns) + float64(frac)/(1<<fracBits))
}

// NewClock returns a clock starting at the given instant.
func NewClock(start Time) *Clock {
	c := &Clock{}
	c.AdvanceTo(start)
	return c
}

// Now returns the current simulated instant.
func (c *Clock) Now() Time { return unquantize(c.ns, c.frac) }

// Advance moves the clock forward by d. Negative advances are a programming
// error and panic, because simulated time never runs backwards.
func (c *Clock) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: clock advanced by negative duration %v", d))
	}
	w, f := quantize(d)
	t := c.frac + f
	c.ns += w + int64(t>>fracBits)
	c.frac = t & (1<<fracBits - 1)
}

// AdvanceN advances by n charges of duration d, leaving the clock in
// exactly the state n successive Advance(d) calls would: the quantised
// remainder is accumulated with integer multiplication, so batched
// settlement of a run is bit-identical to the per-word charge sequence.
func (c *Clock) AdvanceN(d Time, n int) {
	if d < 0 {
		panic(fmt.Sprintf("sim: clock advanced by negative duration %v", d))
	}
	if n <= 0 {
		return
	}
	w, f := quantize(d)
	// f < 2^32, so chunks of 2^31 charges keep f*chunk (and the carried
	// remainder) comfortably inside a uint64.
	for n > 0 {
		chunk := n
		if chunk > 1<<31 {
			chunk = 1 << 31
		}
		t := c.frac + f*uint64(chunk)
		c.ns += w*int64(chunk) + int64(t>>fracBits)
		c.frac = t & (1<<fracBits - 1)
		n -= chunk
	}
}

// AdvanceTo moves the clock forward to instant t if t is later than now.
// It is used to synchronise a thread with a barrier or a GC pause.
func (c *Clock) AdvanceTo(t Time) {
	if t <= c.Now() {
		return
	}
	ns, frac := quantize(t)
	// Quantisation truncates, so guard against stepping backwards when t
	// falls inside the current grid cell.
	if ns > c.ns || (ns == c.ns && frac > c.frac) {
		c.ns, c.frac = ns, frac
	}
}

// Reset rewinds the clock to zero. Only tests and experiment drivers that
// reuse a context between runs should call it.
func (c *Clock) Reset() { c.ns, c.frac = 0, 0 }

// Since returns the elapsed simulated time since mark.
func (c *Clock) Since(mark Time) Time { return c.Now() - mark }
