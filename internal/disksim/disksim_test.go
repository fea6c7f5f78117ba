package disksim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/capacity"
	"repro/internal/geometry"
	"repro/internal/units"
)

func testLayout(t *testing.T) *capacity.Layout {
	t.Helper()
	l, err := capacity.New(capacity.Config{
		Geometry: geometry.Drive{PlatterDiameter: 3.3, Platters: 2, FormFactor: geometry.FormFactor35},
		BPI:      456000, // 2001-era densities
		TPI:      45000,
		Zones:    30,
	})
	if err != nil {
		t.Fatalf("layout: %v", err)
	}
	return l
}

func testDisk(t *testing.T, rpm units.RPM) *Disk {
	t.Helper()
	d, err := New(Config{Layout: testLayout(t), RPM: rpm})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil layout should be rejected")
	}
	if _, err := New(Config{Layout: testLayout(t)}); err == nil {
		t.Error("zero RPM should be rejected")
	}
}

func TestServeColdRandomRead(t *testing.T) {
	d := testDisk(t, 10000)
	mid := d.Layout().TotalSectors() / 2
	c, err := d.Serve(Request{ID: 1, LBN: mid, Sectors: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.CacheHit {
		t.Error("cold read should miss")
	}
	// Response = overhead + seek + rotation + transfer; all positive.
	if c.Parts.Seek <= 0 || c.Parts.Rotation < 0 || c.Parts.Transfer <= 0 {
		t.Errorf("bad breakdown %+v", c.Parts)
	}
	// At 10000 RPM the rotational latency is under one revolution (6 ms).
	if c.Parts.Rotation > 6*time.Millisecond {
		t.Errorf("rotation %v exceeds a revolution", c.Parts.Rotation)
	}
	// Total in a sane single-request window.
	if resp := c.Response(); resp < time.Millisecond || resp > 30*time.Millisecond {
		t.Errorf("response %v outside sane range", resp)
	}
	sum := c.Parts.Queue + c.Parts.Overhead + c.Parts.Seek + c.Parts.Rotation + c.Parts.Transfer
	if sum != c.Response() {
		t.Errorf("breakdown sum %v != response %v", sum, c.Response())
	}
}

func TestSequentialReadsHitCache(t *testing.T) {
	d := testDisk(t, 10000)
	var hits int
	for i := 0; i < 50; i++ {
		c, err := d.Serve(Request{ID: int64(i), LBN: int64(1000 + i*8), Sectors: 8})
		if err != nil {
			t.Fatal(err)
		}
		if c.CacheHit {
			hits++
			// A hit is served in well under a millisecond.
			if svc := c.Finish - c.Start; svc > time.Millisecond {
				t.Errorf("cache hit took %v", svc)
			}
		}
	}
	if hits < 40 {
		t.Errorf("only %d/50 sequential reads hit the cache", hits)
	}
}

func TestWritesInvalidate(t *testing.T) {
	d := testDisk(t, 10000)
	if _, err := d.Serve(Request{ID: 1, LBN: 1000, Sectors: 8}); err != nil {
		t.Fatal(err)
	}
	c2, _ := d.Serve(Request{ID: 2, LBN: 1000, Sectors: 8})
	if !c2.CacheHit {
		t.Fatal("second read should hit")
	}
	if _, err := d.Serve(Request{ID: 3, LBN: 1002, Sectors: 2, Write: true}); err != nil {
		t.Fatal(err)
	}
	c4, _ := d.Serve(Request{ID: 4, LBN: 1000, Sectors: 8})
	if c4.CacheHit {
		t.Error("read after overlapping write should miss")
	}
}

func TestWritesNeverHit(t *testing.T) {
	d := testDisk(t, 10000)
	d.Serve(Request{ID: 1, LBN: 500, Sectors: 8})
	c, _ := d.Serve(Request{ID: 2, LBN: 500, Sectors: 8, Write: true})
	if c.CacheHit {
		t.Error("write-through writes must reach the media")
	}
}

func TestCacheDisabled(t *testing.T) {
	d, err := New(Config{Layout: testLayout(t), RPM: 10000, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	d.Serve(Request{ID: 1, LBN: 0, Sectors: 8})
	c, _ := d.Serve(Request{ID: 2, LBN: 0, Sectors: 8})
	if c.CacheHit {
		t.Error("disabled cache must never hit")
	}
}

func TestHigherRPMIsFaster(t *testing.T) {
	// The same random workload must get faster with RPM — the paper's
	// Figure 4 premise.
	reqs := randomReads(testLayout(t), 500, 400) // 400 req/s
	var prevMean float64 = math.Inf(1)
	for _, rpm := range []units.RPM{10000, 15000, 20000, 25000} {
		d := testDisk(t, rpm)
		comps, err := d.Simulate(reqs)
		if err != nil {
			t.Fatal(err)
		}
		mean := meanResponse(comps)
		if mean >= prevMean {
			t.Errorf("mean at %v (%v) not below previous (%v)", rpm, mean, prevMean)
		}
		prevMean = mean
	}
}

// randomReads builds a deterministic pseudo-random read workload.
func randomReads(l *capacity.Layout, n int, rate float64) []Request {
	reqs := make([]Request, n)
	state := uint64(12345)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	gap := time.Duration(float64(time.Second) / rate)
	for i := range reqs {
		reqs[i] = Request{
			ID:      int64(i),
			Arrival: time.Duration(i) * gap,
			LBN:     int64(next() % uint64(l.TotalSectors()-64)),
			Sectors: 8,
		}
	}
	return reqs
}

func meanResponse(comps []Completion) float64 {
	var sum time.Duration
	for _, c := range comps {
		sum += c.Response()
	}
	return float64(sum) / float64(len(comps))
}

func TestFCFSOrdering(t *testing.T) {
	d := testDisk(t, 10000)
	reqs := []Request{
		{ID: 2, Arrival: 2 * time.Millisecond, LBN: 100, Sectors: 8},
		{ID: 1, Arrival: time.Millisecond, LBN: 50000, Sectors: 8},
	}
	comps, err := d.Simulate(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if comps[0].Request.ID != 1 || comps[1].Request.ID != 2 {
		t.Error("FCFS must service in arrival order")
	}
	if comps[1].Start < comps[0].Finish {
		t.Error("second request started before first finished")
	}
}

func TestSSTFPrefersNearRequest(t *testing.T) {
	layout := testLayout(t)
	far := trackLBN(t, layout, layout.Cylinders-1)
	near := trackLBN(t, layout, 10)
	mk := func(s Scheduler) []Completion {
		d, err := New(Config{Layout: layout, RPM: 10000, Scheduler: s})
		if err != nil {
			t.Fatal(err)
		}
		comps, err := d.Simulate([]Request{
			{ID: 1, Arrival: 0, LBN: far, Sectors: 8},
			{ID: 2, Arrival: 0, LBN: near, Sectors: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		return comps
	}
	sstf := mk(SSTF)
	if sstf[0].Request.ID != 2 {
		t.Error("SSTF should service the near request first (head starts at cylinder 0)")
	}
	sptf := mk(SPTF)
	if len(sptf) != 2 {
		t.Error("SPTF lost a request")
	}
}

func trackLBN(t *testing.T, l *capacity.Layout, cyl int) int64 {
	t.Helper()
	lbn, err := l.LBNOf(capacity.Location{Cylinder: cyl})
	if err != nil {
		t.Fatal(err)
	}
	return lbn
}

func TestSimulatePreservesAllRequests(t *testing.T) {
	layout := testLayout(t)
	reqs := randomReads(layout, 200, 1000)
	for _, s := range []Scheduler{FCFS, SSTF, SPTF, LOOK} {
		d, err := New(Config{Layout: layout, RPM: 15000, Scheduler: s})
		if err != nil {
			t.Fatal(err)
		}
		comps, err := d.Simulate(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if len(comps) != len(reqs) {
			t.Fatalf("%v: %d completions for %d requests", s, len(comps), len(reqs))
		}
		seen := make(map[int64]bool)
		for _, c := range comps {
			if seen[c.Request.ID] {
				t.Fatalf("%v: request %d served twice", s, c.Request.ID)
			}
			seen[c.Request.ID] = true
			if c.Finish < c.Start || c.Start < c.Request.Arrival {
				t.Fatalf("%v: inverted times %+v", s, c)
			}
		}
	}
}

func TestMultiTrackTransfer(t *testing.T) {
	d := testDisk(t, 10000)
	spt := d.Layout().Zones[0].SectorsPerTrack
	// A transfer spanning three tracks takes at least two revolutions plus
	// switches; definitely longer than a one-sector read's transfer.
	big, err := d.Serve(Request{ID: 1, LBN: 0, Sectors: spt * 3})
	if err != nil {
		t.Fatal(err)
	}
	rev := time.Duration(units.RPM(10000).PeriodSeconds() * float64(time.Second))
	if big.Parts.Transfer < 2*rev {
		t.Errorf("3-track transfer %v < 2 revolutions", big.Parts.Transfer)
	}
}

func TestTransferTimeScalesWithRPM(t *testing.T) {
	slow := testDisk(t, 10000)
	fast := testDisk(t, 20000)
	a, _ := slow.Serve(Request{ID: 1, LBN: 0, Sectors: 64})
	b, _ := fast.Serve(Request{ID: 1, LBN: 0, Sectors: 64})
	r := float64(a.Parts.Transfer) / float64(b.Parts.Transfer)
	if math.Abs(r-2) > 0.01 {
		t.Errorf("transfer ratio 10k/20k = %v, want 2", r)
	}
}

func TestValidateRejectsBadRequests(t *testing.T) {
	d := testDisk(t, 10000)
	bad := []Request{
		{ID: 1, LBN: -1, Sectors: 8},
		{ID: 2, LBN: 0, Sectors: 0},
		{ID: 3, LBN: d.Layout().TotalSectors() - 1, Sectors: 8},
		{ID: 4, Arrival: -time.Second, LBN: 0, Sectors: 1},
	}
	for _, r := range bad {
		if _, err := d.Serve(r); err == nil {
			t.Errorf("Serve(%+v) should fail", r)
		}
	}
}

func TestSetRPM(t *testing.T) {
	d := testDisk(t, 10000)
	if err := d.SetRPM(20000); err != nil {
		t.Fatal(err)
	}
	if d.RPM() != 20000 {
		t.Errorf("RPM = %v", d.RPM())
	}
	if err := d.SetRPM(0); err == nil {
		t.Error("zero RPM should be rejected")
	}
}

func TestDelay(t *testing.T) {
	d := testDisk(t, 10000)
	d.Delay(time.Second)
	if d.ReadyTime() != time.Second {
		t.Errorf("ready = %v", d.ReadyTime())
	}
	d.Delay(500 * time.Millisecond) // backward delays are ignored
	if d.ReadyTime() != time.Second {
		t.Error("Delay moved ready time backward")
	}
	c, err := d.Serve(Request{ID: 1, LBN: 0, Sectors: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Start < time.Second {
		t.Error("service started before the delay expired")
	}
}

func TestServedCounter(t *testing.T) {
	d := testDisk(t, 10000)
	for i := 0; i < 5; i++ {
		if _, err := d.Serve(Request{ID: int64(i), LBN: int64(i * 100), Sectors: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if d.Served() != 5 {
		t.Errorf("served = %d", d.Served())
	}
}

func TestSchedulerString(t *testing.T) {
	if FCFS.String() != "FCFS" || SSTF.String() != "SSTF" || SPTF.String() != "SPTF" || LOOK.String() != "LOOK" {
		t.Error("scheduler names wrong")
	}
	if Scheduler(9).String() == "" {
		t.Error("unknown scheduler should still print")
	}
}

func TestPropertyResponsesPositive(t *testing.T) {
	layout := testLayout(t)
	total := layout.TotalSectors()
	d, err := New(Config{Layout: layout, RPM: 15000})
	if err != nil {
		t.Fatal(err)
	}
	f := func(lbnRaw uint64, n uint8, write bool) bool {
		sectors := 1 + int(n%64)
		lbn := int64(lbnRaw % uint64(total-int64(sectors)))
		c, err := d.Serve(Request{ID: 1, LBN: lbn, Sectors: sectors, Write: write})
		if err != nil {
			return false
		}
		return c.Finish > c.Start && c.Parts.Transfer > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRotationalPositionConsistency(t *testing.T) {
	// Two consecutive reads of the same single sector, issued back to back,
	// cost about one full revolution of rotational delay for the second
	// (the sector just passed under the head).
	d, err := New(Config{Layout: testLayout(t), RPM: 10000, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := d.Serve(Request{ID: 1, LBN: 1000, Sectors: 1})
	c2, _ := d.Serve(Request{ID: 2, Arrival: c1.Finish, LBN: 1000, Sectors: 1})
	rev := time.Duration(units.RPM(10000).PeriodSeconds() * float64(time.Second))
	rot := c2.Parts.Rotation
	if rot < rev*8/10 || rot > rev {
		t.Errorf("re-read rotation %v, want close to a revolution (%v)", rot, rev)
	}
}

func TestLOOKSweepsInOrder(t *testing.T) {
	layout := testLayout(t)
	d, err := New(Config{Layout: layout, RPM: 10000, Scheduler: LOOK})
	if err != nil {
		t.Fatal(err)
	}
	// Five simultaneous requests scattered over the stroke: LOOK should
	// service them in ascending cylinder order from cylinder 0.
	cyls := []int{5000, 100, 9000, 2500, 7000}
	reqs := make([]Request, len(cyls))
	for i, c := range cyls {
		reqs[i] = Request{ID: int64(i), LBN: trackLBN(t, layout, c), Sectors: 4}
	}
	comps, err := d.Simulate(reqs)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for _, c := range comps {
		loc, _ := layout.Locate(c.Request.LBN)
		order = append(order, loc.Cylinder)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("LOOK out of sweep order: %v", order)
		}
	}
}

func TestLOOKReverses(t *testing.T) {
	layout := testLayout(t)
	d, err := New(Config{Layout: layout, RPM: 10000, Scheduler: LOOK})
	if err != nil {
		t.Fatal(err)
	}
	// Move the head to mid-stroke first, then offer one inner and one
	// outer request: the sweep continues upward, then reverses.
	warm := Request{ID: 0, LBN: trackLBN(t, layout, 5000), Sectors: 4}
	inner := Request{ID: 1, Arrival: time.Millisecond, LBN: trackLBN(t, layout, 100), Sectors: 4}
	outer := Request{ID: 2, Arrival: time.Millisecond, LBN: trackLBN(t, layout, 9000), Sectors: 4}
	comps, err := d.Simulate([]Request{warm, inner, outer})
	if err != nil {
		t.Fatal(err)
	}
	if comps[1].Request.ID != 2 || comps[2].Request.ID != 1 {
		t.Errorf("LOOK should continue upward before reversing: %v then %v",
			comps[1].Request.ID, comps[2].Request.ID)
	}
}

func TestLOOKBeatsFCFSOnBacklog(t *testing.T) {
	layout := testLayout(t)
	// A backlog of scattered requests all queued at time zero: the
	// elevator should finish the batch sooner than FCFS.
	mk := func(s Scheduler) time.Duration {
		d, err := New(Config{Layout: layout, RPM: 10000, Scheduler: s, CacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		reqs := randomReads(layout, 300, 1e9) // effectively simultaneous
		for i := range reqs {
			reqs[i].Arrival = 0
		}
		comps, err := d.Simulate(reqs)
		if err != nil {
			t.Fatal(err)
		}
		var last time.Duration
		for _, c := range comps {
			if c.Finish > last {
				last = c.Finish
			}
		}
		return last
	}
	if look, fcfs := mk(LOOK), mk(FCFS); look >= fcfs {
		t.Errorf("LOOK makespan %v not better than FCFS %v", look, fcfs)
	}
}
