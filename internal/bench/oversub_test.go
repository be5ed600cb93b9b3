package bench

import (
	"strconv"
	"strings"
	"testing"
)

// TestOversubDeterminism repeats the quick oversubscription sweep once in
// process and requires output byte-identical to the shared sweep's: the
// whole swap plane — reclaimer victim order, tier slot handout,
// far-device queueing, kswapd wake points — must be a pure function of the
// configuration. oversub1 builds its machines directly, so this repeat
// catches host-state leaks the cache-keyed paths cannot; each of its six
// machines must still take a machine slot and count in HarnessStats.
func TestOversubDeterminism(t *testing.T) {
	want := sharedSweep(t).result(t, "oversub1").Format()
	before, _ := HarnessStats()
	res, err := OversubFarMemory(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if after, _ := HarnessStats(); after-before != 6 {
		t.Errorf("oversub1 -quick counted %d machine runs, want 6 (2 ratios × 3 collectors)", after-before)
	}
	if got := res.Format(); got != want {
		t.Errorf("oversub1 is not deterministic across repeats:\n--- sweep ---\n%s\n--- repeat ---\n%s",
			want, got)
	}
}

// TestOversubHeadlineShapes pins the experiment's claims on the quick
// sweep: every point survives (no fail-fast, even at 4x), the 4x points
// really swap, and SVAGC's full-GC pause beats the evacuating byte-copy
// baseline once the heap is far past RAM.
func TestOversubHeadlineShapes(t *testing.T) {
	res := sharedSweep(t).result(t, "oversub1")
	col := func(name string) int {
		for i, h := range res.Header {
			if h == name {
				return i
			}
		}
		t.Fatalf("no column %q", name)
		return -1
	}
	cPause, cOut, cAlloc := col("gc-pause"), col("swap-out"), col("post-alloc")
	pauses := map[string]string{} // "ratio|collector" -> pause cell
	for _, row := range res.Rows {
		if row[cAlloc] != "ok" {
			t.Errorf("%s %s: post-alloc %q, want ok (no fail-fast under oversubscription)",
				row[0], row[1], row[cAlloc])
		}
		if strings.HasPrefix(row[0], "4.0x") {
			if out, _ := strconv.Atoi(row[cOut]); out == 0 {
				t.Errorf("%s %s: no swap-out at 4x oversubscription", row[0], row[1])
			}
		}
		pauses[row[0]+"|"+row[1]] = row[cPause]
	}
	parse := func(key string) float64 {
		cell, ok := pauses[key]
		if !ok {
			t.Fatalf("missing row %q", key)
		}
		v, err := parseDuration(cell)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		return v
	}
	sv, cp := parse("4.0x (64 MiB)|svagc"), parse("4.0x (64 MiB)|copygc")
	if sv >= cp {
		t.Errorf("at 4x, svagc pause %v >= copygc pause %v: SwapVA lost its oversubscription edge", sv, cp)
	}
}

// parseDuration decodes sim.Time.String() cells ("429.217us", "22.091ms",
// "1.2s") into nanoseconds.
func parseDuration(s string) (float64, error) {
	switch {
	case strings.HasSuffix(s, "ns"):
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ns"), 64)
		return v, err
	case strings.HasSuffix(s, "us"):
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "us"), 64)
		return v * 1e3, err
	case strings.HasSuffix(s, "ms"):
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
		return v * 1e6, err
	case strings.HasSuffix(s, "s"):
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "s"), 64)
		return v * 1e9, err
	}
	return 0, strconv.ErrSyntax
}
