package machine

import (
	"math"

	"repro/internal/sim"
)

// Bus models contention on the memory subsystem. Each logical stream (a GC
// worker copying, a mutator thread scanning) registers while it is memory
// active. Up to MemChannels streams run at full per-stream bandwidth; past
// that, bandwidth degrades with the square root of the oversubscription
// ratio — an empirical middle ground between perfect scaling and strict
// division that reflects partially overlapping demand. Random (latency-
// bound) accesses degrade by the same factor, capped at maxLatencyFactor.
//
// Multi-JVM experiments model co-running virtual machines by a JVM
// multiplier: with k active JVMs each running s streams, contention is
// computed for k*s streams even though only one JVM is simulated in
// detail. This keeps multi-JVM scaling results (Figs. 2 and 14)
// deterministic.
type Bus struct {
	cost    *sim.CostModel
	streams int
	jvms    int
}

// maxLatencyFactor caps how much queueing can inflate a random access.
const maxLatencyFactor = 8.0

func (b *Bus) init(cost *sim.CostModel) {
	b.cost = cost
	b.jvms = 1
}

// AddStreams registers n additional active memory streams (n may be
// negative to unregister). It returns the new count.
func (b *Bus) AddStreams(n int) int {
	b.streams += n
	if b.streams < 0 {
		panic("machine: bus stream count went negative")
	}
	return b.streams
}

// SetStreams sets the absolute active stream count, returning the old
// value. Experiment drivers use it for deterministic virtual parallelism.
func (b *Bus) SetStreams(n int) int {
	old := b.streams
	b.streams = n
	return old
}

// Streams returns the current per-JVM stream count.
func (b *Bus) Streams() int { return b.streams }

// SetActiveJVMs sets the co-running JVM multiplier (>= 1).
func (b *Bus) SetActiveJVMs(n int) {
	if n < 1 {
		n = 1
	}
	b.jvms = n
}

// ActiveJVMs returns the JVM multiplier.
func (b *Bus) ActiveJVMs() int { return b.jvms }

// oversubscription returns total streams / channels, at least 1.
func (b *Bus) oversubscription() float64 {
	total := b.streams * b.jvms
	if total < 1 {
		total = 1
	}
	ratio := float64(total) / float64(b.cost.MemChannels)
	if ratio < 1 {
		return 1
	}
	return ratio
}

// EffectiveGBs returns the bandwidth currently available to one stream.
func (b *Bus) EffectiveGBs() float64 {
	return b.cost.StreamBWGBs / math.Sqrt(b.oversubscription())
}

// LatencyFactor returns the multiplier applied to latency-bound (random)
// DRAM accesses under the current load.
func (b *Bus) LatencyFactor() float64 {
	f := math.Sqrt(b.oversubscription())
	if f > maxLatencyFactor {
		return maxLatencyFactor
	}
	return f
}
