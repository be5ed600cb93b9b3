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
	Pressure  Pressure
}

// Tenant is a cgroup-style memory controller for one group of address
// spaces: a hard cap in frames plus per-tenant min/low/high watermarks
// scaled from the cap exactly like the machine-wide plane scales from the
// physical pool. Mapping charges pages against the cap before any frame is
// allocated, so an over-cap tenant is refused without disturbing the
// machine-wide allocator, and unmapping uncharges symmetrically. A nil
// *Tenant disables every check.
type Tenant struct {
	name string
	cap  int // frames; the hard limit
	wm   Watermarks
	used int // pages currently charged
	peak int
}

// NewTenant builds a tenant capped at capFrames, with per-tenant
// watermarks derived via DefaultWatermarks(capFrames).
func NewTenant(name string, capFrames int) (*Tenant, error) {
	if capFrames <= 0 {
		return nil, fmt.Errorf("mem: tenant %q needs a positive cap (got %d frames)", name, capFrames)
	}
	wm := DefaultWatermarks(capFrames)
	if err := wm.validate(capFrames); err != nil {
		return nil, fmt.Errorf("mem: tenant %q cap %d too small for watermarks: %w", name, capFrames, err)
	}
	return &Tenant{name: name, cap: capFrames, wm: wm}, nil
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

// PressureLevel maps the tenant's remaining budget onto the watermark
// ladder, mirroring PhysMem's machine-wide levels: available frames at or
// below Low mean the tenant should stall and collect, at or below Min mean
// fail fast. Nil-safe (PressureNone when disabled).
func (t *Tenant) PressureLevel() Pressure {
	if t == nil {
		return PressureNone
	}
	avail := t.cap - t.used
	switch {
	case avail <= t.wm.Min:
		return PressureMin
	case avail <= t.wm.Low:
		return PressureLow
	default:
		return PressureNone
	}
}

// AboveHigh reports whether the tenant's free budget has recovered above
// the high watermark — the hysteresis re-arm point for its emergency-GC
// trigger. Nil-safe.
func (t *Tenant) AboveHigh() bool {
	if t == nil {
		return true
	}
	return t.cap-t.used > t.wm.High
}

// Watermarks returns the tenant's derived thresholds. Nil-safe.
func (t *Tenant) Watermarks() Watermarks {
	if t == nil {
		return Watermarks{}
	}
	return t.wm
}

// Usage snapshots the tenant's accounting. Nil-safe.
func (t *Tenant) Usage() TenantUsage {
	if t == nil {
		return TenantUsage{}
	}
	u := TenantUsage{Name: t.name, CapFrames: t.cap, Charged: t.used, Peak: t.peak}
	avail := t.cap - t.used
	switch {
	case avail <= t.wm.Min:
		u.Pressure = PressureMin
	case avail <= t.wm.Low:
		u.Pressure = PressureLow
	}
	return u
}
