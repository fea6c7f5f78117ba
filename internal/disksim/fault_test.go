package disksim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/units"
)

// scripted replays a fixed sequence of fault decisions.
type scripted struct {
	seq []AccessFault
	i   int
}

func (s *scripted) Access(time.Duration, Request) AccessFault {
	if s.i >= len(s.seq) {
		return AccessFault{}
	}
	f := s.seq[s.i]
	s.i++
	return f
}

func TestFaultRetriesChargeRevolutionPlusSettle(t *testing.T) {
	layout := testLayout(t)
	mk := func(f FaultInjector) Completion {
		d, err := New(Config{Layout: layout, RPM: 10000, CacheBytes: -1, Faults: f})
		if err != nil {
			t.Fatal(err)
		}
		c, err := d.Serve(Request{ID: 1, LBN: 5000, Sectors: 8})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	clean := mk(&scripted{})
	retry := mk(&scripted{seq: []AccessFault{{Retries: 3}}})
	rev := time.Duration(units.RPM(10000).PeriodSeconds() * float64(time.Second))
	want := 3 * (rev + DefaultSettle)
	if got := retry.Response() - clean.Response(); got != want {
		t.Errorf("3 retries added %v, want %v", got, want)
	}
	if retry.Retries != 3 || !retry.Retried {
		t.Errorf("completion retry fields wrong: %+v", retry)
	}
}

func TestUnrecoverableSectorRemaps(t *testing.T) {
	layout := testLayout(t)
	d, err := New(Config{Layout: layout, RPM: 10000, CacheBytes: -1,
		Faults: &scripted{seq: []AccessFault{{Unrecoverable: true}}}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.Serve(Request{ID: 1, LBN: 5000, Sectors: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Remapped {
		t.Error("unrecoverable access should be marked remapped")
	}
	if d.Remapped() != 1 {
		t.Errorf("grown-defect list has %d entries, want 1", d.Remapped())
	}
	if d.SparePool() != layout.SpareSectors()-1 {
		t.Errorf("spare pool %d, want %d", d.SparePool(), layout.SpareSectors()-1)
	}

	// A later visit to the remapped sector pays the relocation round-trip.
	again, err := d.Serve(Request{ID: 2, Arrival: c.Finish, LBN: 5000, Sectors: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Remapped {
		t.Error("re-reading a grown defect should visit the spare area")
	}
	// An untouched sector does not.
	clean, err := d.Serve(Request{ID: 3, Arrival: again.Finish, LBN: 900000, Sectors: 8})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Remapped {
		t.Error("clean sectors must not pay the relocation penalty")
	}
}

func TestSparePoolExhaustionFailsDisk(t *testing.T) {
	layout := testLayout(t)
	d, err := New(Config{Layout: layout, RPM: 10000, CacheBytes: -1, SparePool: 1,
		Faults: &scripted{seq: []AccessFault{{Unrecoverable: true}, {Unrecoverable: true}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Serve(Request{ID: 1, LBN: 5000, Sectors: 8}); err != nil {
		t.Fatalf("first remap should fit the pool: %v", err)
	}
	_, err = d.Serve(Request{ID: 2, Arrival: time.Second, LBN: 70000, Sectors: 8})
	if !errors.Is(err, ErrDiskFailed) {
		t.Fatalf("pool exhaustion should fail the disk, got %v", err)
	}
	if !d.Failed() {
		t.Error("disk should be failed")
	}
	// Everything after the failure is refused.
	if _, err := d.Serve(Request{ID: 3, Arrival: 2 * time.Second, LBN: 0, Sectors: 8}); !errors.Is(err, ErrDiskFailed) {
		t.Errorf("post-failure serve returned %v", err)
	}
}

func TestFailAfterKillsDiskAtTime(t *testing.T) {
	layout := testLayout(t)
	d, err := New(Config{Layout: layout, RPM: 10000, CacheBytes: -1,
		Faults: FailAfter{T: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Serve(Request{ID: 1, Arrival: 0, LBN: 5000, Sectors: 8}); err != nil {
		t.Fatalf("pre-failure request should succeed: %v", err)
	}
	_, err = d.Serve(Request{ID: 2, Arrival: 2 * time.Second, LBN: 5000, Sectors: 8})
	if !errors.Is(err, ErrDiskFailed) {
		t.Fatalf("want ErrDiskFailed, got %v", err)
	}
	if d.FailedAt() < 2*time.Second {
		t.Errorf("failure timestamped %v, want >= 2s", d.FailedAt())
	}
}

func TestFaultInjectorSkipsCacheHits(t *testing.T) {
	layout := testLayout(t)
	inj := &scripted{seq: []AccessFault{{}, {DiskFailure: true}}}
	d, err := New(Config{Layout: layout, RPM: 10000, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Serve(Request{ID: 1, LBN: 0, Sectors: 8}); err != nil {
		t.Fatal(err)
	}
	// The second read hits the cache: the injector must not be consulted.
	c, err := d.Serve(Request{ID: 2, Arrival: time.Second, LBN: 0, Sectors: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !c.CacheHit {
		t.Fatal("expected a cache hit")
	}
	if inj.i != 1 {
		t.Errorf("injector consulted %d times, want 1", inj.i)
	}
}

func TestSpareSectorsPositive(t *testing.T) {
	if s := testLayout(t).SpareSectors(); s <= 0 {
		t.Errorf("spare pool %d, want > 0", s)
	}
}
