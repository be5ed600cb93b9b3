package cache

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4, 64); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := New(1024, 4, 48); err == nil {
		t.Error("non-power-of-two line accepted")
	}
	if _, err := New(4096, 3, 64); err == nil {
		t.Error("geometry with non-power-of-two sets accepted")
	}
	if _, err := New(32*64, 32, 64); err == nil {
		t.Error("32 ways accepted: the recency order holds at most 16")
	}
	if _, err := New(16*64, 16, 64); err != nil {
		t.Errorf("16 ways rejected: %v", err)
	}
	c, err := New(64*1024, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sets() != 256 || c.Ways() != 4 || c.LineSize() != 64 {
		t.Errorf("geometry sets=%d ways=%d line=%d", c.Sets(), c.Ways(), c.LineSize())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew on bad geometry did not panic")
		}
	}()
	MustNew(10, 3, 48)
}

func TestAccessHitAfterMiss(t *testing.T) {
	c := MustNew(4096, 4, 64)
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("second access missed")
	}
	if !c.Access(0x1030) { // same 64-byte line
		t.Error("same-line access missed")
	}
	if c.Access(0x1040) { // next line
		t.Error("neighbouring line hit while cold")
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 1 set: third distinct line evicts the least recently used.
	c := MustNew(128, 2, 64)
	if c.Sets() != 1 {
		t.Fatalf("want 1 set, got %d", c.Sets())
	}
	c.Access(0x0000) // A miss
	c.Access(0x0040) // B miss
	c.Access(0x0000) // A hit, B becomes LRU
	c.Access(0x0080) // C miss, evicts B
	if !c.Access(0x0000) {
		t.Error("A was evicted but was MRU")
	}
	if c.Access(0x0040) {
		t.Error("B should have been evicted")
	}
}

func TestAccessRangeCounts(t *testing.T) {
	c := MustNew(1<<20, 16, 64)
	hits, misses := c.AccessRange(0x10000, 4096)
	if hits != 0 || misses != 64 {
		t.Errorf("cold range: hits=%d misses=%d, want 0/64", hits, misses)
	}
	hits, misses = c.AccessRange(0x10000, 4096)
	if hits != 64 || misses != 0 {
		t.Errorf("warm range: hits=%d misses=%d, want 64/0", hits, misses)
	}
	// Unaligned range spanning an extra line.
	hits, misses = c.AccessRange(0x20020, 128)
	if hits+misses != 3 {
		t.Errorf("unaligned 128B from 0x20: touched %d lines, want 3", hits+misses)
	}
	if h, m := c.AccessRange(0x30000, 0); h != 0 || m != 0 {
		t.Error("zero-length range touched lines")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := MustNew(4096, 4, 64)
	c.Access(0x40)
	c.InvalidateAll()
	if c.Access(0x40) {
		t.Error("hit after InvalidateAll")
	}
}

// Property: immediately repeating any access hits, regardless of history.
func TestRepeatAccessAlwaysHits(t *testing.T) {
	c := MustNew(64*1024, 8, 64)
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			c.Access(uint64(a))
			if !c.Access(uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a working set no larger than one set's ways never misses after
// warm-up (true LRU guarantees this for repeated round-robin access).
func TestWorkingSetFitsAssociativity(t *testing.T) {
	c := MustNew(8192, 4, 64) // 32 sets, 4 ways
	// Four lines mapping to the same set: stride = sets*lineSize = 2048.
	lines := []uint64{0, 2048, 4096, 6144}
	for _, a := range lines {
		c.Access(a)
	}
	for round := 0; round < 3; round++ {
		for _, a := range lines {
			if !c.Access(a) {
				t.Fatalf("line %#x missed with working set == associativity", a)
			}
		}
	}
}
