package sim

import (
	"math/rand"
	"testing"
)

// clockState exposes the fixed-point representation for bit-exactness
// assertions; Now() alone would hide sub-float64 divergence.
func clockState(c *Clock) (int64, uint64) { return c.ns, c.frac }

// TestClockTickProductMatchesLoop is the rounding-divergence regression
// test: one batched AdvanceTicks(ToTicks(d)*n) must leave the clock
// bit-identical to n individual Advance(d) calls, for durations with
// awkward binary remainders.
func TestClockTickProductMatchesLoop(t *testing.T) {
	durations := []Time{0, 0.1, 0.3, 0.5, 6, 90, 1.0 / 3, 4096.0 / 12.0, 8.0 / 34.0, 1e-9, 123456.789}
	counts := []int{0, 1, 2, 3, 7, 8, 100, 4096}
	for _, d := range durations {
		for _, n := range counts {
			batched, serial := &Clock{}, &Clock{}
			batched.AdvanceTicks(ToTicks(d) * Ticks(n))
			for i := 0; i < n; i++ {
				serial.Advance(d)
			}
			bn, bf := clockState(batched)
			sn, sf := clockState(serial)
			if bn != sn || bf != sf {
				t.Errorf("AdvanceTicks(ToTicks(%v)*%d) = (%d,%d), want per-call state (%d,%d)",
					d, n, bn, bf, sn, sf)
			}
		}
	}
}

// TestClockSplitPointsProperty asserts the settlement contract for
// arbitrary split points: charging a multiset of quanta in any grouping
// and any order leaves the clock in exactly the same state. This is the
// property that lets run settlement regroup a per-word charge sequence
// into closed-form batches — tick products per quantum, and tick sums
// across quanta, each settled with one add — without changing a single
// figure.
func TestClockSplitPointsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cuts := rand.New(rand.NewSource(2)) // the summed pieces' own stream
	quanta := []Time{0.5, 6, 90, 153, 1.0 / 2.1, 64.0 / 11.0, 0.3, 28}
	for trial := 0; trial < 200; trial++ {
		// A random charge sequence of 1..500 quanta.
		n := 1 + rng.Intn(500)
		seq := make([]Time, n)
		for i := range seq {
			seq[i] = quanta[rng.Intn(len(quanta))]
		}

		serial := &Clock{}
		for _, d := range seq {
			serial.Advance(d)
		}

		// Regroup: walk the sequence, batching runs of equal quanta split
		// at random points.
		grouped := &Clock{}
		for i := 0; i < n; {
			j := i + 1
			for j < n && seq[j] == seq[i] && rng.Intn(4) != 0 {
				j++
			}
			grouped.AdvanceTicks(ToTicks(seq[i]) * Ticks(j-i))
			i = j
		}

		// Sum: cut the sequence into random contiguous pieces of mixed
		// quanta and settle each piece's tick sum with one add.
		summed := &Clock{}
		for i := 0; i < n; {
			j := i + 1 + cuts.Intn(n-i)
			var sum Ticks
			for _, d := range seq[i:j] {
				sum += ToTicks(d)
			}
			summed.AdvanceTicks(sum)
			i = j
		}

		// Reorder: sort-free permutation of the same multiset.
		permuted := &Clock{}
		for _, i := range rng.Perm(n) {
			permuted.Advance(seq[i])
		}

		sn, sf := clockState(serial)
		for name, c := range map[string]*Clock{"grouped": grouped, "summed": summed, "permuted": permuted} {
			cn, cf := clockState(c)
			if cn != sn || cf != sf {
				t.Fatalf("trial %d: %s state (%d,%d) != serial (%d,%d)",
					trial, name, cn, cf, sn, sf)
			}
		}
	}
}

// TestClockAdvanceToMonotonic guards the quantised AdvanceTo: it must
// never move backwards, must be idempotent, and must synchronise two
// clocks to an identical state.
func TestClockAdvanceToMonotonic(t *testing.T) {
	a := &Clock{}
	a.Advance(1234.567)
	a.Advance(0.3)

	b := &Clock{}
	b.AdvanceTo(a.Now())
	if b.Now() > a.Now() {
		t.Fatalf("AdvanceTo overshot: %v > %v", b.Now(), a.Now())
	}
	before := b.Now()
	b.AdvanceTo(a.Now()) // idempotent: re-syncing must not drift
	if b.Now() != before {
		t.Fatalf("AdvanceTo not idempotent: %v -> %v", before, b.Now())
	}
	b.AdvanceTo(b.Now() - 100) // never backwards
	if b.Now() != before {
		t.Fatalf("AdvanceTo moved backwards to %v", b.Now())
	}
}
