package dtm

// Characterization of the five streaming controllers: each case runs one
// controller on a fixed SyntheticSource stream and pins three FNV-1a
// digests, kept apart so a trace-only change shows as exactly one moved
// constant:
//
//   - result: the returned result (%+v), the error, and every completion
//     pushed to the sink;
//   - metrics: the obs snapshot of the case's NewInstruments registry;
//   - spans: the engine tracer's control-episode spans.
//
// The cases are chosen so that every branch of every control loop fires,
// and each case asserts the counters that prove it did. A digest that moves
// means the controllers' observable behaviour changed; regenerate the
// constants only for a deliberate change, and say which ones moved.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"testing"
	"time"

	"repro/internal/disksim"
	"repro/internal/obs"
	"repro/internal/reliability"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/units"
)

// charRun is what one characterization case observed.
type charRun struct {
	res   any
	err   error
	comps []disksim.Completion
	reg   *obs.Registry
	spans []obs.Span
}

// count returns the value of the named counter in the case's registry.
func (r charRun) count(name string) int64 {
	for _, m := range r.reg.Snapshot() {
		if m.Name == name {
			return m.Count
		}
	}
	return -1
}

// charEnv is what a case's run function builds its controller from.
type charEnv struct {
	ctx  context.Context
	eng  *sim.Engine
	src  sim.Source[disksim.Request]
	sink sim.Sink[disksim.Completion]
	ins  *Instruments
	th   *thermal.Model
	tb   testing.TB
}

func (e charEnv) disk(rpm units.RPM) *disksim.Disk {
	d, _ := buildDTMDisk(e.tb, rpm)
	return d
}

// hot is the worst-case steady state at rpm with the air node moved by
// dAir: the rest of the drive is already heat-soaked, so the air heats
// (or keeps heating) from the first request on.
func (e charEnv) hot(rpm units.RPM, dAir units.Celsius) *thermal.State {
	s := e.th.SteadyState(thermal.WorstCase(rpm))
	s.Air += dAir
	return &s
}

type charCase struct {
	name        string
	n           int
	rate        float64
	cancelAfter int // cancel the run's context after this many completions
	run         func(e charEnv) (any, error)
	check       func(t *testing.T, r charRun)
	want        [3]uint64 // result, metrics, spans
}

func charCases() []charCase {
	hotRPM, lowRPM := units.RPM(24534), units.RPM(15020)
	ladder := []units.RPM{hotRPM, 21000, 18000, lowRPM}
	drpmLevels := []units.RPM{lowRPM, 18000, 21000, hotRPM}
	faults := func(seed int64, accel float64) *ThermalFaults {
		f := NewThermalFaults(OffTrackModel{Envelope: thermal.Envelope - 3}, reliability.Default(), nil, seed)
		f.TimeAcceleration = accel
		return f
	}
	return []charCase{
		{
			name: "watermark/vcm-only/seek-duty/sampled", n: 3000, rate: 150,
			want: [3]uint64{0x5c14adbc211fe70a, 0xe02228ac5dcd0c13, 0x90d9e8bd37ca4b0f},
			run: func(e charEnv) (any, error) {
				c := Controller{Disk: e.disk(hotRPM), Thermal: e.th, Mode: VCMOnly, SeekDuty: true,
					SampleEvery: 250 * time.Millisecond, Initial: e.hot(21000, -2.5), Ins: e.ins}
				return c.RunStream(e.eng, e.src, e.sink)
			},
			check: func(t *testing.T, r charRun) {
				if res := r.res.(Result); res.ThrottleEvents == 0 {
					t.Error("no throttle")
				}
			},
		},
		{
			name: "watermark/vcm-rpm/sampled", n: 3000, rate: 150,
			want: [3]uint64{0xf3461dc89a355036, 0x534eec7176e525f7, 0x498dd85bbfeba29a},
			run: func(e charEnv) (any, error) {
				c := Controller{Disk: e.disk(hotRPM), Thermal: e.th, Mode: VCMAndRPM, LowRPM: lowRPM,
					SampleEvery: 500 * time.Millisecond, Initial: e.hot(21000, -2.5), Ins: e.ins}
				return c.RunStream(e.eng, e.src, e.sink)
			},
			check: func(t *testing.T, r charRun) {
				if res := r.res.(Result); res.ThrottleEvents == 0 {
					t.Error("no throttle")
				}
			},
		},
		{
			name: "watermark/fail-after", n: 2000, rate: 150,
			want: [3]uint64{0x33a7e4f3ecbdb45a, 0x33094aea75dba39f, 0xdb4dab9143d82bfc},
			run: func(e charEnv) (any, error) {
				d := e.disk(hotRPM)
				d.SetFaults(disksim.FailAfter{T: 40 * time.Second})
				c := Controller{Disk: d, Thermal: e.th, Mode: VCMOnly, Initial: e.hot(21000, -2.5), Ins: e.ins}
				return c.RunStream(e.eng, e.src, e.sink)
			},
			check: func(t *testing.T, r charRun) {
				if !errors.Is(r.err, disksim.ErrDiskFailed) {
					t.Errorf("err = %v, want ErrDiskFailed", r.err)
				}
				if r.count("dtm_throttle_events_total") == 0 {
					t.Error("no throttle before the failure")
				}
			},
		},
		{
			name: "watermark/cancelled", n: 3000, rate: 150, cancelAfter: 1200,
			want: [3]uint64{0xf8ba47eb5de977af, 0x78fce5321cd4f54f, 0x1cee4e6c7de3615d},
			run: func(e charEnv) (any, error) {
				c := Controller{Disk: e.disk(hotRPM), Thermal: e.th, Mode: VCMOnly,
					SampleEvery: 250 * time.Millisecond, Initial: e.hot(21000, -2.5), Ins: e.ins}
				return c.RunStreamCtx(e.ctx, e.eng, e.src, e.sink)
			},
			check: func(t *testing.T, r charRun) {
				if !errors.Is(r.err, context.Canceled) {
					t.Errorf("err = %v, want context.Canceled", r.err)
				}
				if len(r.comps) != 1200 {
					t.Errorf("%d completions before the cancel, want 1200", len(r.comps))
				}
			},
		},
		{
			// The one drop-to-boost gap is 43.5 s from the end of the drop's
			// transition, 45.5 s from its start: the 44 s flap window
			// counts it only if the drop releases after its transition.
			name: "slack-ramp/faults/flap", n: 8000, rate: 120,
			want: [3]uint64{0x28b6ac80f068cbf6, 0x9831951d9509e481, 0x0af2a89a97c9c410},
			run: func(e charEnv) (any, error) {
				s := SlackRamp{Disk: e.disk(lowRPM), Thermal: e.th, BoostRPM: hotRPM,
					RampAt: thermal.Envelope - 1.2, DropAt: thermal.Envelope - 0.8,
					Initial: e.hot(lowRPM, -2), FlapWindow: 44 * time.Second, SampleEvery: time.Second,
					Faults: faults(5, 0), Ins: e.ins}
				return s.RunStream(e.eng, e.src, e.sink)
			},
			check: func(t *testing.T, r charRun) {
				res := r.res.(RampResult)
				if res.Transitions < 2 || res.BoostedTime == 0 {
					t.Errorf("transitions %d, boosted %v: want a boost and a drop", res.Transitions, res.BoostedTime)
				}
				if res.Flaps == 0 || res.Retries == 0 {
					t.Errorf("flaps %d, retries %d: want both", res.Flaps, res.Retries)
				}
			},
		},
		{
			name: "slack-ramp/fail-after", n: 2000, rate: 60,
			want: [3]uint64{0x6ada7f5074b2e956, 0x0f23dc2155dcabee, 0xcbf29ce484222325},
			run: func(e charEnv) (any, error) {
				d := e.disk(lowRPM)
				s := SlackRamp{Disk: d, Thermal: e.th, BoostRPM: hotRPM, Initial: e.hot(lowRPM, 0), Ins: e.ins}
				d.SetFaults(disksim.FailAfter{T: 20 * time.Second})
				return s.RunStream(e.eng, e.src, e.sink)
			},
			check: func(t *testing.T, r charRun) {
				if res := r.res.(RampResult); r.err != nil || !res.DiskFailed {
					t.Errorf("err %v, failed %v: want a graceful failure", r.err, res.DiskFailed)
				}
			},
		},
		{
			name: "slack-ramp/cancelled", n: 4000, rate: 120, cancelAfter: 2500,
			want: [3]uint64{0x923b739ed1715951, 0xa364fb9ec8ee1be4, 0xbe73bfd9e705b57a},
			run: func(e charEnv) (any, error) {
				s := SlackRamp{Disk: e.disk(lowRPM), Thermal: e.th, BoostRPM: hotRPM,
					Initial: e.hot(lowRPM, -2), Ins: e.ins}
				return s.RunStreamCtx(e.ctx, e.eng, e.src, e.sink)
			},
			check: func(t *testing.T, r charRun) {
				if !errors.Is(r.err, context.Canceled) || r.count("dtm_rpm_transitions_total") == 0 {
					t.Errorf("err = %v after %d transitions, want context.Canceled after some",
						r.err, r.count("dtm_rpm_transitions_total"))
				}
			},
		},
		{
			name: "drpm/down-and-up/sampled", n: 4000, rate: 40,
			want: [3]uint64{0x029d15a71b955308, 0xa8a67466035ced89, 0x06d55fb54a1a17bf},
			run: func(e charEnv) (any, error) {
				p := DRPM{Disk: e.disk(hotRPM), Thermal: e.th, Levels: drpmLevels,
					StepUpBelow: thermal.Envelope - 1, SampleEvery: time.Second,
					Initial: e.hot(lowRPM, 1), Ins: e.ins}
				return p.RunStream(e.eng, e.src, e.sink)
			},
			check: func(t *testing.T, r charRun) {
				down, up := 0, 0
				for _, s := range r.spans {
					if air, _ := strconv.ParseFloat(s.Attrs[0].Value, 64); air >= float64(thermal.Envelope-0.05) {
						down++
					} else {
						up++
					}
				}
				if down == 0 || up == 0 {
					t.Errorf("%d steps down, %d up: want both", down, up)
				}
			},
		},
		{
			name: "drpm/fail-after", n: 2000, rate: 60,
			want: [3]uint64{0x5abe9c3ba793b2d5, 0x7c03ac0bcd60890a, 0x6e473f4dd2f9dad6},
			run: func(e charEnv) (any, error) {
				d := e.disk(hotRPM)
				d.SetFaults(disksim.FailAfter{T: 10 * time.Second})
				p := DRPM{Disk: d, Thermal: e.th, Levels: drpmLevels, Initial: e.hot(hotRPM, 0), Ins: e.ins}
				return p.RunStream(e.eng, e.src, e.sink)
			},
			check: func(t *testing.T, r charRun) {
				if !errors.Is(r.err, disksim.ErrDiskFailed) {
					t.Errorf("err = %v, want ErrDiskFailed", r.err)
				}
			},
		},
		{
			name: "drpm/cancelled", n: 3000, rate: 60, cancelAfter: 1000,
			want: [3]uint64{0xba900c99663ddd29, 0x10f03acc40e0eb85, 0xbfb34b305fd8e7f0},
			run: func(e charEnv) (any, error) {
				p := DRPM{Disk: e.disk(hotRPM), Thermal: e.th, Levels: drpmLevels,
					Initial: e.hot(lowRPM, 1), Ins: e.ins}
				return p.RunStreamCtx(e.ctx, e.eng, e.src, e.sink)
			},
			check: func(t *testing.T, r charRun) {
				if !errors.Is(r.err, context.Canceled) || r.count("dtm_rpm_transitions_total") == 0 {
					t.Errorf("err = %v after %d transitions, want context.Canceled after some",
						r.err, r.count("dtm_rpm_transitions_total"))
				}
			},
		},
		{
			name: "escalation/offline/split-bands", n: 3000, rate: 150,
			want: [3]uint64{0xc4755807a1e17846, 0x232946bd3d51e563, 0x4c7102491deaabba},
			run: func(e charEnv) (any, error) {
				x := Escalation{Disk: e.disk(hotRPM), Thermal: e.th, Levels: ladder,
					OfflineAt: thermal.Envelope + 3, ThrottleAt: thermal.Envelope + 1,
					StepBand: Band{Engage: 0.2, Release: 1.5}, ThrottleBand: Band{Engage: 0.1, Release: 1.5},
					OfflineBand: Band{Engage: 0.2, Release: 4}, OverAt: thermal.Envelope + 0.5,
					SampleEvery: 500 * time.Millisecond, Initial: e.hot(hotRPM, 0), Ins: e.ins}
				return x.RunStream(e.eng, e.src, e.sink)
			},
			check: func(t *testing.T, r charRun) {
				res := r.res.(EscalationResult)
				if res.Offlines == 0 || res.Throttles == 0 || res.StepDowns == 0 {
					t.Errorf("offlines %d, throttles %d, step-downs %d: want all three",
						res.Offlines, res.Throttles, res.StepDowns)
				}
			},
		},
		{
			name: "escalation/steps-up", n: 4000, rate: 60,
			want: [3]uint64{0xc48c5919a7388e20, 0x0ffdb4e8cb84c253, 0xeaff9ad6ec2ab735},
			run: func(e charEnv) (any, error) {
				x := Escalation{Disk: e.disk(hotRPM), Thermal: e.th, Levels: ladder,
					OverAt: thermal.Envelope + 1.5, Initial: e.hot(lowRPM, 2.5), Ins: e.ins}
				return x.RunStream(e.eng, e.src, e.sink)
			},
			check: func(t *testing.T, r charRun) {
				res := r.res.(EscalationResult)
				if res.Throttles == 0 || res.StepDowns == 0 {
					t.Errorf("throttles %d, step-downs %d: want both", res.Throttles, res.StepDowns)
				}
				if up := r.count("dtm_rpm_transitions_total") - int64(res.StepDowns); up <= 0 {
					t.Errorf("%d steps back up, want some", up)
				}
			},
		},
		{
			name: "escalation/faults/dies", n: 3000, rate: 150,
			want: [3]uint64{0x888cc8a528a6425e, 0xec1c21fd1807d5c6, 0x1f91a91b52bf0c1a},
			run: func(e charEnv) (any, error) {
				x := Escalation{Disk: e.disk(hotRPM), Thermal: e.th, Levels: ladder,
					Faults: faults(3, 1e9), SampleEvery: time.Second, Initial: e.hot(hotRPM, 0), Ins: e.ins}
				return x.RunStream(e.eng, e.src, e.sink)
			},
			check: func(t *testing.T, r charRun) {
				res := r.res.(EscalationResult)
				if r.err != nil || !res.DiskFailed || res.Retries == 0 {
					t.Errorf("err %v, failed %v, retries %d: want a graceful failure after retries",
						r.err, res.DiskFailed, res.Retries)
				}
			},
		},
		{
			name: "escalation/cancelled", n: 3000, rate: 150, cancelAfter: 900,
			want: [3]uint64{0xda2d746bc69305b2, 0xc0ed2014884b664e, 0x1f91a91b52bf0c1a},
			run: func(e charEnv) (any, error) {
				x := Escalation{Disk: e.disk(hotRPM), Thermal: e.th, Levels: ladder,
					Initial: e.hot(hotRPM, 0), Ins: e.ins}
				return x.RunStreamCtx(e.ctx, e.eng, e.src, e.sink)
			},
			check: func(t *testing.T, r charRun) {
				if !errors.Is(r.err, context.Canceled) {
					t.Errorf("err = %v, want context.Canceled", r.err)
				}
			},
		},
		{
			name: "predictive/vcm-only", n: 3000, rate: 150,
			want: [3]uint64{0xa286732ece9bc9af, 0xd7077dfd99e28ca1, 0x3bb1ff35efe770fb},
			run: func(e charEnv) (any, error) {
				p := PredictiveController{Disk: e.disk(hotRPM), Thermal: e.th, Mode: VCMOnly,
					Predictive: Band{Engage: 1, Release: 1.5}, SampleEvery: 250 * time.Millisecond,
					Initial: e.hot(hotRPM, -2), Ins: e.ins}
				return p.RunStream(e.eng, e.src, e.sink)
			},
			check: func(t *testing.T, r charRun) {
				res := r.res.(PredictiveResult)
				if res.EarlyThrottles == 0 || res.ReactiveThrottles == 0 {
					t.Errorf("early %d, reactive %d: want both", res.EarlyThrottles, res.ReactiveThrottles)
				}
			},
		},
		{
			name: "predictive/vcm-rpm/faults", n: 3000, rate: 150,
			want: [3]uint64{0x3120e42caed599d4, 0xee0bdb8c6949a88b, 0xeb11daabee7f5468},
			run: func(e charEnv) (any, error) {
				p := PredictiveController{Disk: e.disk(hotRPM), Thermal: e.th, Mode: VCMAndRPM, LowRPM: lowRPM,
					Predictive: Band{Engage: 0.5, Release: 2}, Reactive: Band{Engage: 0.05, Release: 1.5},
					LeadTime: 2 * time.Second, Window: 4, Faults: faults(9, 0),
					Initial: e.hot(hotRPM, 0), Ins: e.ins}
				return p.RunStream(e.eng, e.src, e.sink)
			},
			check: func(t *testing.T, r charRun) {
				res := r.res.(PredictiveResult)
				if res.EarlyThrottles == 0 || res.ReactiveThrottles == 0 {
					t.Errorf("early %d, reactive %d: want both", res.EarlyThrottles, res.ReactiveThrottles)
				}
			},
		},
		{
			name: "predictive/cancelled", n: 3000, rate: 150, cancelAfter: 1500,
			want: [3]uint64{0xf40945cb2a406faf, 0xb7c8cc2c9e8cd2b9, 0xbf69c47a93702ac7},
			run: func(e charEnv) (any, error) {
				p := PredictiveController{Disk: e.disk(hotRPM), Thermal: e.th, Mode: VCMOnly,
					SampleEvery: 250 * time.Millisecond, Initial: e.hot(21000, -2.5), Ins: e.ins}
				return p.RunStreamCtx(e.ctx, e.eng, e.src, e.sink)
			},
			check: func(t *testing.T, r charRun) {
				if !errors.Is(r.err, context.Canceled) || r.count("dtm_throttle_events_total")+
					r.count("dtm_predictive_early_throttles_total") == 0 {
					t.Errorf("err = %v, want context.Canceled after a pause", r.err)
				}
			},
		},
		{
			name: "predictive/fail-after", n: 2000, rate: 150,
			want: [3]uint64{0x7ec63ddcb04ba631, 0xd362655f7a7fd3e7, 0x060ee95ccc9d195a},
			run: func(e charEnv) (any, error) {
				d := e.disk(hotRPM)
				p := PredictiveController{Disk: d, Thermal: e.th, Mode: VCMOnly,
					Initial: e.hot(hotRPM, -2), Ins: e.ins}
				d.SetFaults(disksim.FailAfter{T: 4 * time.Minute})
				return p.RunStream(e.eng, e.src, e.sink)
			},
			check: func(t *testing.T, r charRun) {
				if res := r.res.(PredictiveResult); r.err != nil || !res.DiskFailed {
					t.Errorf("err %v, failed %v: want a graceful failure", r.err, res.DiskFailed)
				}
			},
		},
	}
}

func TestControllersCharacterized(t *testing.T) {
	disk, th := buildDTMDisk(t, 24534)
	total := disk.Layout().TotalSectors()
	for _, tc := range charCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			reg := obs.NewRegistry()
			tracer := obs.NewTracer(0)
			eng := sim.NewEngine()
			eng.SetTracer(tracer)
			var r charRun
			sink := sim.SinkFunc[disksim.Completion](func(c disksim.Completion) {
				r.comps = append(r.comps, c)
				if len(r.comps) == tc.cancelAfter {
					cancel()
				}
			})
			env := charEnv{ctx: ctx, eng: eng, src: SyntheticSource(total, tc.n, tc.rate, 17),
				sink: sink, ins: NewInstruments(reg, tc.name), th: th, tb: t}
			r.res, r.err = tc.run(env)
			r.reg, r.spans = reg, tracer.Spans()

			tc.check(t, r)
			got := r.digests()
			if got != tc.want {
				t.Errorf("digests moved:\n got  {0x%016x, 0x%016x, 0x%016x}\n want {0x%016x, 0x%016x, 0x%016x}",
					got[0], got[1], got[2], tc.want[0], tc.want[1], tc.want[2])
			}
		})
	}
}

// digests hashes the run's result, metrics and spans separately.
func (r charRun) digests() [3]uint64 {
	res := fnv.New64a()
	fmt.Fprintf(res, "%+v\n%v\n", r.res, r.err)
	for _, c := range r.comps {
		fmt.Fprintf(res, "%+v\n", c)
	}
	met := fnv.New64a()
	if err := obs.WriteNDJSON(met, r.reg.Snapshot()); err != nil {
		panic(err)
	}
	sp := fnv.New64a()
	if err := obs.WriteSpans(sp, r.spans); err != nil {
		panic(err)
	}
	return [3]uint64{res.Sum64(), met.Sum64(), sp.Sum64()}
}
