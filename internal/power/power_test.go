package power

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/capacity"
	"repro/internal/disksim"
	"repro/internal/geometry"
	"repro/internal/thermal"
	"repro/internal/units"
)

func refModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(thermal.ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(geometry.Drive{}); err == nil {
		t.Error("zero geometry should be rejected")
	}
}

func TestBreakdownComponents(t *testing.T) {
	m := refModel(t)
	b := m.Active(15098)
	if math.Abs(float64(b.Windage)-0.91) > 0.01 {
		t.Errorf("windage = %v, want ~0.91 W", b.Windage)
	}
	if math.Abs(float64(b.VCM)-3.9) > 1e-6 {
		t.Errorf("VCM = %v, want 3.9 W", b.VCM)
	}
	if b.Electronics != ElectronicsPower {
		t.Errorf("electronics = %v", b.Electronics)
	}
	if b.Bearing <= 0 {
		t.Errorf("bearing = %v", b.Bearing)
	}
	sum := b.Windage + b.Bearing + b.VCM + b.MotorLoss + b.Electronics
	if b.Total() != sum {
		t.Error("Total() != component sum")
	}
	// Motor loss reflects the efficiency constant.
	wantLoss := float64(b.Windage+b.Bearing) * (1/MotorEfficiency - 1)
	if math.Abs(float64(b.MotorLoss)-wantLoss) > 1e-9 {
		t.Errorf("motor loss = %v, want %v", b.MotorLoss, wantLoss)
	}
}

func TestIdleVsActive(t *testing.T) {
	m := refModel(t)
	idle := m.Idle(15000)
	active := m.Active(15000)
	if idle.VCM != 0 {
		t.Error("idle drive should draw no VCM power")
	}
	if active.Total() <= idle.Total() {
		t.Error("seeking must cost more than idling")
	}
	if idle.Windage != active.Windage {
		t.Error("windage should not depend on seeking")
	}
}

func TestDutyClamps(t *testing.T) {
	m := refModel(t)
	if m.At(15000, -1) != m.At(15000, 0) {
		t.Error("negative duty should clamp to 0")
	}
	if m.At(15000, 2) != m.At(15000, 1) {
		t.Error("duty > 1 should clamp to 1")
	}
	half := m.At(15000, 0.5)
	if math.Abs(float64(half.VCM)-1.95) > 1e-9 {
		t.Errorf("half duty VCM = %v, want 1.95 W", half.VCM)
	}
}

func TestPowerGrowsWithRPM(t *testing.T) {
	m := refModel(t)
	f := func(a, b uint16) bool {
		r1 := units.RPM(5000 + int(a)%40000)
		r2 := units.RPM(5000 + int(b)%40000)
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		return m.Idle(r1).Total() <= m.Idle(r2).Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnergy(t *testing.T) {
	if got := Energy(10, time.Minute); got != 600 {
		t.Errorf("10 W for a minute = %v, want 600 J", got)
	}
	if Joules(7200).String() != "2.00 Wh" {
		t.Errorf("7200 J prints %q", Joules(7200).String())
	}
	if Joules(5).String() != "5.0 J" {
		t.Errorf("5 J prints %q", Joules(5).String())
	}
}

func testCompletions(t *testing.T, rpm units.RPM, n int) []disksim.Completion {
	t.Helper()
	layout, err := capacity.New(capacity.Config{
		Geometry: thermal.ReferenceDrive,
		BPI:      533000, TPI: 64000, Zones: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := disksim.New(disksim.Config{Layout: layout, RPM: rpm})
	if err != nil {
		t.Fatal(err)
	}
	var comps []disksim.Completion
	state := uint64(3)
	for i := 0; i < n; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		c, err := d.Serve(disksim.Request{
			ID:      int64(i),
			Arrival: time.Duration(i) * 10 * time.Millisecond,
			LBN:     int64(state % uint64(layout.TotalSectors()-8)),
			Sectors: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, c)
	}
	return comps
}

func TestAccountRun(t *testing.T) {
	m := refModel(t)
	comps := testCompletions(t, 15000, 200)
	acct := m.AccountRun(15000, comps)
	if acct.Requests != 200 {
		t.Errorf("requests = %d", acct.Requests)
	}
	if acct.Span <= 0 || acct.Spin <= 0 || acct.Seek <= 0 {
		t.Errorf("empty account: %+v", acct)
	}
	// Spin dominates seeks for a lightly loaded drive.
	if acct.Seek >= acct.Spin {
		t.Errorf("seek energy (%v) exceeds spin (%v) at 10ms inter-arrivals", acct.Seek, acct.Spin)
	}
	// Mean power lies between idle and active.
	idle, active := m.Idle(15000).Total(), m.Active(15000).Total()
	if mp := acct.MeanPower(); mp < idle || mp > active {
		t.Errorf("mean power %v outside [%v, %v]", mp, idle, active)
	}
	if acct.JoulesPerRequest() <= 0 {
		t.Error("zero joules per request")
	}
}

func TestAccountRunEmpty(t *testing.T) {
	m := refModel(t)
	acct := m.AccountRun(15000, nil)
	if acct.Total() != 0 || acct.MeanPower() != 0 || acct.JoulesPerRequest() != 0 {
		t.Error("empty run should cost nothing")
	}
}

func TestFasterIsCostlier(t *testing.T) {
	m := refModel(t)
	slow := m.AccountRun(10000, testCompletions(t, 10000, 300))
	fast := m.AccountRun(20000, testCompletions(t, 20000, 300))
	// Same span (open-loop arrivals), higher speed: more energy.
	if inc := CompareRPM(slow, fast); inc <= 0 {
		t.Errorf("20k run should cost more energy: %+.1f%%", inc*100)
	}
}

func TestCompareRPMZero(t *testing.T) {
	if CompareRPM(Account{}, Account{}) != 0 {
		t.Error("empty comparison should be zero")
	}
}

func TestSpinDownBreakEven(t *testing.T) {
	m := refModel(t)
	be := m.BreakEvenIdle(15000)
	// Server-class spin-up (2x idle power for 10 s) breaks even after ~20 s
	// of spun-down time.
	if be < 10*time.Second || be > time.Minute {
		t.Errorf("break-even %v outside the plausible window", be)
	}
}

func TestEvaluateSpinDownSparseTrace(t *testing.T) {
	m := refModel(t)
	// Two requests five minutes apart: one spin-down, large savings.
	layoutComps := testCompletions(t, 15000, 1)
	far := layoutComps[0]
	far.Request.Arrival += 5 * time.Minute
	far.Start += 5 * time.Minute
	far.Finish += 5 * time.Minute
	comps := []disksim.Completion{layoutComps[0], far}

	res, err := m.EvaluateSpinDown(15000, comps, SpinDownPolicy{IdleTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpinDowns != 1 || res.DelayedRequests != 1 {
		t.Errorf("spin-downs %d, delayed %d", res.SpinDowns, res.DelayedRequests)
	}
	if res.Savings() <= 0 {
		t.Errorf("five idle minutes should save energy, got %.1f%%", res.Savings()*100)
	}
	if res.AddedLatency != 10*time.Second {
		t.Errorf("added latency %v, want one 10 s spin-up", res.AddedLatency)
	}
}

func TestEvaluateSpinDownBusyServerSavesNothing(t *testing.T) {
	// The paper's premise: server idle gaps are too short for spin-down.
	m := refModel(t)
	comps := testCompletions(t, 15000, 300) // 10 ms inter-arrivals
	res, err := m.EvaluateSpinDown(15000, comps, SpinDownPolicy{IdleTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpinDowns != 0 || res.Savings() != 0 {
		t.Errorf("busy trace should never spin down: %+v", res)
	}
}

func TestEvaluateSpinDownErrors(t *testing.T) {
	m := refModel(t)
	if _, err := m.EvaluateSpinDown(15000, nil, SpinDownPolicy{}); err == nil {
		t.Error("zero timeout should be rejected")
	}
	res, err := m.EvaluateSpinDown(15000, nil, SpinDownPolicy{IdleTimeout: time.Second})
	if err != nil || res.Baseline != 0 {
		t.Errorf("empty trace: %+v, %v", res, err)
	}
}
