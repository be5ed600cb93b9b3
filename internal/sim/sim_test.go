package sim

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	d := 1500 * Microsecond
	if got := d.Milliseconds(); got != 1.5 {
		t.Errorf("Milliseconds() = %v, want 1.5", got)
	}
	if got := d.Seconds(); got != 0.0015 {
		t.Errorf("Seconds() = %v, want 0.0015", got)
	}
	if got := d.Microseconds(); got != 1500 {
		t.Errorf("Microseconds() = %v, want 1500", got)
	}
	if got := d.Nanoseconds(); got != 1.5e6 {
		t.Errorf("Nanoseconds() = %v, want 1.5e6", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		d    Time
		want string
	}{
		{2 * Second, "2.000s"},
		{3500 * Microsecond, "3.500ms"},
		{42 * Microsecond, "42.000us"},
		{7 * Nanosecond, "7.0ns"},
		{0, "0.0ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%v ns).String() = %q, want %q", float64(c.d), got, c.want)
		}
	}
}

func TestMaxMin(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Error("Max wrong")
	}
	if Min(1, 2) != 1 || Min(2, 1) != 1 {
		t.Error("Min wrong")
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock(0)
	c.Advance(10)
	c.Advance(5)
	if c.Now() != 15 {
		t.Fatalf("Now() = %v, want 15", c.Now())
	}
	if got := c.Since(10); got != 5 {
		t.Errorf("Since(10) = %v, want 5", got)
	}
	c.AdvanceTo(12) // earlier than now: no-op
	if c.Now() != 15 {
		t.Errorf("AdvanceTo backwards moved the clock to %v", c.Now())
	}
	c.AdvanceTo(20)
	if c.Now() != 20 {
		t.Errorf("AdvanceTo(20) = %v", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Errorf("Reset left clock at %v", c.Now())
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	NewClock(0).Advance(-1)
}

func TestPredefinedModelsValidate(t *testing.T) {
	for _, cm := range []*CostModel{XeonGold6130(), XeonGold6240(), CoreI5_7600()} {
		if err := cm.Validate(); err != nil {
			t.Errorf("%s: %v", cm.Name, err)
		}
	}
}

func TestModelByName(t *testing.T) {
	for _, name := range []string{"gold6130", "gold6240", "i5-7600", "XeonGold6130"} {
		if _, err := ModelByName(name); err != nil {
			t.Errorf("ModelByName(%q): %v", name, err)
		}
	}
	if _, err := ModelByName("cray-1"); err == nil {
		t.Error("ModelByName accepted an unknown name")
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	good := XeonGold6130()
	mutations := []func(*CostModel){
		func(c *CostModel) { c.Cores = 0 },
		func(c *CostModel) { c.CPUGHz = 0 },
		func(c *CostModel) { c.StreamBWGBs = 0 },
		func(c *CostModel) { c.TotalBWGBs = -1 },
		func(c *CostModel) { c.MemChannels = 0 },
		func(c *CostModel) { c.CacheLineSize = 48 },
		func(c *CostModel) { c.CacheLineSize = 0 },
		func(c *CostModel) { c.TLBHitNs = -0.5 },
		func(c *CostModel) { c.CacheHitNs = Time(math.NaN()) },
		func(c *CostModel) { c.PTWalkLevelNs = 1 << 29 }, // a 2^31 ns walk
	}
	for i, mut := range mutations {
		cm := *good
		mut(&cm)
		if err := cm.Validate(); err == nil {
			t.Errorf("mutation %d: Validate accepted an invalid model", i)
		}
	}
}

func TestCyclesNs(t *testing.T) {
	cm := XeonGold6130() // 2.1 GHz
	if got := cm.CyclesNs(2.1); got != 1 {
		t.Errorf("CyclesNs(2.1) = %v, want 1", got)
	}
}

func TestCopyNs(t *testing.T) {
	// 1 GB/s == 1 byte/ns, so 4096 bytes at 4 GB/s is 1024 ns.
	if got := CopyNs(4096, 4); got != 1024 {
		t.Errorf("CopyNs = %v, want 1024", got)
	}
}

func TestShootdownNs(t *testing.T) {
	cm := XeonGold6130()
	want := cm.IPIBaseNs + Time(cm.Cores-1)*cm.IPIPerCoreNs
	if got := cm.ShootdownNs(); got != want {
		t.Errorf("ShootdownNs = %v, want %v", got, want)
	}
	single := *cm
	single.Cores = 1
	if got := single.ShootdownNs(); got != 0 {
		t.Errorf("single-core ShootdownNs = %v, want 0", got)
	}
}

func TestShootdownGrowsWithCores(t *testing.T) {
	cm := XeonGold6130()
	prev := Time(-1)
	for cores := 1; cores <= 64; cores *= 2 {
		c := *cm
		c.Cores = cores
		if got := c.ShootdownNs(); got <= prev {
			t.Fatalf("ShootdownNs not increasing at %d cores: %v <= %v", cores, got, prev)
		} else {
			prev = got
		}
	}
}

func TestPerfAddAndReset(t *testing.T) {
	a := &Perf{CacheRefs: 10, CacheMisses: 5, TLBLookups: 4, TLBMisses: 1, IPIsSent: 3,
		SwapVACalls: 2, PagesSwapped: 20, MemmoveCalls: 1, BytesCopied: 100,
		Syscalls: 2, PTWalks: 7, PTLevelHits: 9, Shootdowns: 1,
		TLBFlushLocal: 2, TLBFlushPage: 3, BytesRead: 11, BytesWrite: 13}
	b := &Perf{}
	b.Add(a)
	b.Add(a)
	if b.CacheRefs != 20 || b.PagesSwapped != 40 || b.BytesCopied != 200 ||
		b.PTLevelHits != 18 || b.TLBFlushPage != 6 || b.BytesWrite != 26 {
		t.Errorf("Add accumulated wrong: %+v", b)
	}
	b.Reset()
	if *b != (Perf{}) {
		t.Errorf("Reset left %+v", b)
	}
}

func TestPerfPercentages(t *testing.T) {
	p := &Perf{CacheRefs: 200, CacheMisses: 50, TLBLookups: 1000, TLBMisses: 5}
	if got := p.CacheMissPct(); got != 25 {
		t.Errorf("CacheMissPct = %v, want 25", got)
	}
	if got := p.DTLBMissPct(); got != 0.5 {
		t.Errorf("DTLBMissPct = %v, want 0.5", got)
	}
	empty := &Perf{}
	if empty.CacheMissPct() != 0 || empty.DTLBMissPct() != 0 {
		t.Error("empty Perf percentages should be 0")
	}
	if s := p.String(); !strings.Contains(s, "25.00% miss") {
		t.Errorf("String() = %q lacks cache miss pct", s)
	}
}

// Property: Add is associative with respect to the counters — summing in
// any grouping yields the same totals.
func TestPerfAddCommutes(t *testing.T) {
	f := func(a, b Perf) bool {
		x := Perf{}
		x.Add(&a)
		x.Add(&b)
		y := Perf{}
		y.Add(&b)
		y.Add(&a)
		return x == y
	}
	// testing/quick cannot set Perf's blank field, so fill the named
	// counters here.
	randomPerfs := func(args []reflect.Value, rng *rand.Rand) {
		for i := range args {
			v := reflect.New(reflect.TypeOf(Perf{})).Elem()
			for j := 0; j < v.NumField(); j++ {
				if v.Type().Field(j).Name != "_" {
					v.Field(j).SetUint(rng.Uint64())
				}
			}
			args[i] = v
		}
	}
	if err := quick.Check(f, &quick.Config{Values: randomPerfs}); err != nil {
		t.Error(err)
	}
}

// Property: a clock never decreases under arbitrary sequences of
// non-negative advances.
func TestClockMonotonic(t *testing.T) {
	f := func(steps []uint16) bool {
		c := NewClock(0)
		prev := Time(0)
		for _, s := range steps {
			c.Advance(Time(s))
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
