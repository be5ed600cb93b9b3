package mem

import "fmt"

// ErrTenantCap wraps ErrNoMemory for allocations refused because they would
// push one tenant past its own cap, not because the machine is out of
// frames. errors.Is(err, ErrNoMemory) and errors.Is(err, ErrTenantCap) both
// hold, so callers can distinguish a tenant-local cap hit (throttle that
// tenant) from machine-wide exhaustion (machine-wide OOM behavior).
var ErrTenantCap = fmt.Errorf("tenant memory cap exceeded: %w", ErrNoMemory)

// CapError is the structured over-cap failure: which tenant hit its cap
// and by how much. It wraps ErrTenantCap (and therefore ErrNoMemory).
type CapError struct {
	Tenant    string
	CapFrames int
	Charged   int // pages charged at the refusal
	Need      int // pages the refused request asked for
}

// Error implements error.
func (e *CapError) Error() string {
	return fmt.Sprintf("tenant %q over cap: %d/%d pages charged, %d more requested: %v",
		e.Tenant, e.Charged, e.CapFrames, e.Need, ErrTenantCap)
}

// Unwrap lets errors.Is(err, ErrTenantCap) and errors.Is(err, ErrNoMemory)
// match through the structured error.
func (e *CapError) Unwrap() error { return ErrTenantCap }

// TenantUsage is a point-in-time snapshot of one tenant's accounting,
// embedded in machine.MemReport for per-tenant attribution.
type TenantUsage struct {
	Name      string
	CapFrames int
	Charged   int // pages currently charged against the cap
	Peak      int // high-water mark of Charged
}

// Tenant is a cgroup-style memory controller for one group of address
// spaces: a hard cap in frames, plus charge and peak accounting. Mapping
// charges pages against the cap before any frame is allocated, so an
// over-cap tenant is refused without disturbing the machine-wide
// allocator, and unmapping uncharges symmetrically. A nil *Tenant
// disables every check.
type Tenant struct {
	name string
	cap  int // frames; the hard limit
	used int // pages currently charged
	peak int
}

// NewTenant builds a tenant capped at capFrames.
func NewTenant(name string, capFrames int) (*Tenant, error) {
	if capFrames <= 0 {
		return nil, fmt.Errorf("mem: tenant %q needs a positive cap (got %d frames)", name, capFrames)
	}
	return &Tenant{name: name, cap: capFrames}, nil
}

// Name returns the tenant's display name. Nil-safe.
func (t *Tenant) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// ChargePages charges n pages against the cap, failing with a *CapError
// (wrapping ErrTenantCap) when the charge would exceed it. The charge
// happens before any physical frame is touched, so a refusal leaves the
// machine-wide allocator untouched. Nil-safe: a nil tenant admits
// everything.
func (t *Tenant) ChargePages(n int) error {
	if t == nil || n <= 0 {
		return nil
	}
	if t.used+n > t.cap {
		return &CapError{Tenant: t.name, CapFrames: t.cap, Charged: t.used, Need: n}
	}
	t.used += n
	if t.used > t.peak {
		t.peak = t.used
	}
	return nil
}

// UnchargePages returns n pages to the tenant's budget. Nil-safe;
// uncharging below zero clamps (the symmetric charge/uncharge pairing in
// mmu makes this unreachable, but a clamp beats silent wraparound).
func (t *Tenant) UnchargePages(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.used -= n
	if t.used < 0 {
		t.used = 0
	}
}

// Usage snapshots the tenant's accounting. Nil-safe.
func (t *Tenant) Usage() TenantUsage {
	if t == nil {
		return TenantUsage{}
	}
	return TenantUsage{Name: t.name, CapFrames: t.cap, Charged: t.used, Peak: t.peak}
}
