package disksim

import (
	"errors"
	"fmt"
	"time"
)

// ErrDiskFailed is returned (wrapped) by Serve once a disk has failed — by
// injector decision or by exhausting its grown-defect spare pool. Array
// layers test for it with errors.Is and fail the member over.
var ErrDiskFailed = errors.New("disksim: disk failed")

// AccessFault is what a FaultInjector decides strikes one mechanical access.
// The zero value is a clean access.
type AccessFault struct {
	// Retries is the number of off-track re-reads the access suffers;
	// each is charged one full revolution plus the settle time (the head
	// drifted off the track centerline and must come around again).
	Retries int

	// Unrecoverable declares the target sector unreadable even after the
	// retries: the disk remaps it to the spare pool, paying a relocation
	// seek, and adds it to the grown-defect list. If the pool is
	// exhausted the disk fails instead.
	Unrecoverable bool

	// DiskFailure kills the whole drive at this access: the request (and
	// every later one) returns ErrDiskFailed.
	DiskFailure bool
}

// FaultInjector decides, per mechanical access, what faults strike. It is
// consulted once per media access (cache hits never touch the media) with
// the access start time, so a thermally-coupled implementation can read the
// drive's current temperature. Implementations draw all randomness from
// their own explicitly seeded source so runs stay reproducible; the
// canonical thermal implementation is dtm.ThermalFaults.
type FaultInjector interface {
	Access(now time.Duration, r Request) AccessFault
}

// FailAfter is a scripted injector that fails the disk at the first
// mechanical access at or after T — reproducible disk-loss scenarios for
// degraded-mode and rebuild studies.
type FailAfter struct {
	T time.Duration
}

// Access implements FaultInjector.
func (f FailAfter) Access(now time.Duration, _ Request) AccessFault {
	if now >= f.T {
		return AccessFault{DiskFailure: true}
	}
	return AccessFault{}
}

// SetFaults installs (or, with nil, removes) the disk's fault injector.
// DTM layers use it to wire an injector that reads a thermal transient
// created after the disk itself.
func (d *Disk) SetFaults(f FaultInjector) { d.cfg.Faults = f }

// Failed reports whether the disk has failed.
func (d *Disk) Failed() bool { return d.failed }

// FailedAt returns when the disk failed (zero if it has not).
func (d *Disk) FailedAt() time.Duration { return d.failedAt }

// Remapped returns how many sectors have been remapped to spares.
func (d *Disk) Remapped() int64 { return int64(len(d.remaps)) }

// SparePool returns how many spare sectors remain unallocated.
func (d *Disk) SparePool() int64 { return d.sparePool - int64(len(d.remaps)) }

// fail marks the disk dead and returns the wrapped sentinel.
func (d *Disk) fail(at time.Duration, why string) error {
	d.failed = true
	d.failedAt = at
	return fmt.Errorf("%w at %v (%s)", ErrDiskFailed, at, why)
}

// spareCylinder is where the reassignment area lives: the innermost track.
func (d *Disk) spareCylinder() int { return d.layout.Cylinders - 1 }

// remapPenalty is the extra positioning cost of visiting the spare area and
// returning: twice the seek from the access cylinder plus a settle.
func (d *Disk) remapPenalty(fromCyl int) time.Duration {
	return 2*d.seek.SeekTime(d.spareCylinder()-fromCyl) + DefaultSettle
}

// touchesRemap reports whether any sector of [lbn, lbn+sectors) is on the
// grown-defect list. The list is small (bounded by the spare pool), so a
// map probe per entry or per sector — whichever is fewer — stays cheap.
func (d *Disk) touchesRemap(lbn int64, sectors int) bool {
	if len(d.remaps) == 0 {
		return false
	}
	if len(d.remaps) < sectors {
		for defect := range d.remaps {
			if defect >= lbn && defect < lbn+int64(sectors) {
				return true
			}
		}
		return false
	}
	for s := int64(0); s < int64(sectors); s++ {
		if _, ok := d.remaps[lbn+s]; ok {
			return true
		}
	}
	return false
}

// applyFaults charges an access's injected faults. It is called after the
// nominal seek/rotation/transfer have been priced, with the head at lastCyl
// and the clock at t; it returns the new clock (or an error that fails the
// disk). Off-track retries each cost a revolution plus settle; an
// unrecoverable sector additionally pays the relocation round-trip to the
// spare area and joins the grown-defect list.
func (d *Disk) applyFaults(f AccessFault, r Request, c *Completion, t time.Duration, lastCyl int, period time.Duration) (time.Duration, error) {
	if f.DiskFailure {
		return t, d.fail(t, "injected failure")
	}
	if f.Retries > 0 {
		extra := time.Duration(f.Retries) * (period + DefaultSettle)
		c.Parts.Rotation += extra
		c.Retries += f.Retries
		c.Retried = true
		t += extra
		d.retries += int64(f.Retries)
	}
	if f.Unrecoverable {
		if int64(len(d.remaps)) >= d.sparePool {
			return t, d.fail(t, "spare pool exhausted")
		}
		if _, already := d.remaps[r.LBN]; !already {
			d.remaps[r.LBN] = int64(len(d.remaps))
		}
		reloc := d.remapPenalty(lastCyl)
		c.Parts.Seek += reloc
		c.Remapped = true
		t += reloc
	}
	return t, nil
}
