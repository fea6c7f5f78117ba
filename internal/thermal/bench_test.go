package thermal

import (
	"testing"
	"time"

	"repro/internal/units"
)

// BenchmarkAdvanceIdleBusy is the DTM controllers' co-advance pattern (results
// in BENCH_dtm.json): one Advance of a few milliseconds per request,
// alternating idle (duty 0) and busy (duty 1) at 24,534 RPM, with a step to
// 15,020 RPM and back every 1,000 calls as an RPM policy makes. One op is one
// such cycle of 1,000 calls, which keeps ns/op far above benchdiff's
// sub-noise floor; ns/advance reports the per-call cost. Zero allocs/op,
// exactly: the per-speed step kernel lives in the Transient.
func BenchmarkAdvanceIdleBusy(b *testing.B) {
	m, err := New(ReferenceDrive)
	if err != nil {
		b.Fatal(err)
	}
	const calls = 1000
	tr := m.NewTransient(m.SteadyState(Load{RPM: 24534, VCMDuty: 0.5, Ambient: DefaultAmbient}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < calls; j++ {
			rpm := units.RPM(24534)
			if j == calls-1 {
				rpm = 15020
			}
			tr.Advance(Load{RPM: rpm, VCMDuty: float64(j & 1), Ambient: DefaultAmbient}, 3*time.Millisecond)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*calls), "ns/advance")
	b.ReportMetric(float64(tr.State().Air), "air-C")
}
