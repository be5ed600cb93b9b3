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
// on: n charges of one quantum, summed as Ticks and settled with one
// AdvanceTicks, leave the clock in bit-for-bit the same state as n
// separate Advance calls, however the sequence is split or regrouped. A
// float64-accumulating clock cannot offer that (N small charges drift
// from one batched charge of the same total), which was the
// rounding-divergence bug this representation fixes.
type Clock struct {
	ns   int64  // whole simulated nanoseconds
	frac uint64 // sub-ns remainder in 2^-32 ns units; always < 1<<32
}

// fracBits is the sub-nanosecond resolution of the clock's fixed-point
// grid: durations are truncated to multiples of 2^-fracBits ns (~2.3e-10
// ns), far below anything a cost model charges or a figure prints.
const (
	fracBits = 32
	fracMask = 1<<fracBits - 1
)

// Ticks is a duration already quantised onto the clock's grid, packed as
// whole<<32 | frac: the whole nanoseconds in the high 32 bits and the
// 2^-32 ns remainder in the low 32. Adding packed values adds durations
// exactly, so a sum of Ticks — n charges of t are Ticks(n)*t — settles
// with one AdvanceTicks, bit-identical to advancing by each charge in
// turn. Charges that repeat (a machine's TLB-hit, LLC-hit and walk
// costs) are quantised once with ToTicks instead of on every access. A
// sum must stay below 2^32 ns (about 4.3 s).
type Ticks uint64

// maxTicksNs bounds what ToTicks accepts: below it, scaling by 2^32 is
// exact in float64 and stays under 2^63.
const maxTicksNs = 1 << 31

// ToTicks quantises d, which must lie in [0, 2^31) ns, onto the clock's
// grid: the packed form of quantize(d), so AdvanceTicks(ToTicks(d)) and
// Advance(d) leave the clock in the same state. It panics on anything
// outside that range, NaN included.
func ToTicks(d Time) Ticks {
	if !inTicksRange(d) {
		badDuration(d)
	}
	return Ticks(int64(d * (1 << fracBits)))
}

// inTicksRange reports whether d lies in [0, 2^31) ns; NaN does not.
func inTicksRange(d Time) bool { return d >= 0 && d < maxTicksNs }

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
	if inTicksRange(d) {
		x := int64(d * (1 << fracBits))
		return x >> fracBits, uint64(x) & fracMask
	}
	w := int64(d)
	return w, uint64((float64(d) - float64(w)) * (1 << fracBits))
}

// unquantize reconstructs the nearest float64 instant.
func unquantize(ns int64, frac uint64) Time {
	return Time(float64(ns) + float64(frac)/(1<<fracBits))
}

// badDuration panics for a charge the clock cannot take.
func badDuration(d Time) {
	panic(fmt.Sprintf("sim: clock advanced by negative or out-of-range duration %v", d))
}

// NewClock returns a clock starting at the given instant.
func NewClock(start Time) *Clock {
	c := &Clock{}
	c.AdvanceTo(start)
	return c
}

// Now returns the current simulated instant.
func (c *Clock) Now() Time { return unquantize(c.ns, c.frac) }

// Advance moves the clock forward by d. A negative d, NaN, an infinity or
// anything from 2^63 ns up is a programming error and panics: simulated
// time never runs backwards, and those values would wrap the
// whole-nanosecond count.
func (c *Clock) Advance(d Time) {
	if !(d >= 0 && d < 1<<63) {
		badDuration(d)
	}
	c.add(quantize(d))
}

// AdvanceTicks moves the clock forward by a pre-quantised duration or a
// sum of them: one integer add with carry.
func (c *Clock) AdvanceTicks(t Ticks) {
	c.add(int64(t>>fracBits), uint64(t)&fracMask)
}

// add is the clock's one accumulation routine: w whole ns plus f 2^-32 ns
// units, carrying the remainder into the whole count.
func (c *Clock) add(w int64, f uint64) {
	t := c.frac + f
	c.ns += w + int64(t>>fracBits)
	c.frac = t & fracMask
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
