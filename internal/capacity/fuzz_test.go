package capacity

import (
	"testing"

	"repro/internal/geometry"
	"repro/internal/units"
)

// FuzzLayout ensures the layout derivation never panics across the
// configuration space and that derived layouts keep their invariants.
func FuzzLayout(f *testing.F) {
	f.Add(533000.0, 64000.0, uint8(4), uint8(30))
	f.Add(270000.0, 20000.0, uint8(1), uint8(50))
	f.Add(1.0, 1.0, uint8(0), uint8(0))
	f.Add(1.9e6, 540000.0, uint8(1), uint8(50))
	f.Fuzz(func(t *testing.T, bpi, tpi float64, platters, zones uint8) {
		cfg := Config{
			Geometry: geometry.Drive{
				PlatterDiameter: 2.6,
				Platters:        int(platters % 8),
				FormFactor:      geometry.FormFactor35,
			},
			BPI:   units.BPI(bpi),
			TPI:   units.TPI(tpi),
			Zones: int(zones),
		}
		l, err := New(cfg)
		if err != nil {
			return
		}
		if l.DeratedCapacity() < 0 || l.DeratedCapacity() > l.RawCapacity() {
			t.Fatalf("capacity ordering violated: derated %v raw %v",
				l.DeratedCapacity(), l.RawCapacity())
		}
		if l.TotalSectors() > 0 {
			// First and last sectors, and each non-empty zone's first and
			// last LBN, must locate and round-trip.
			lbns := []int64{0, l.TotalSectors() - 1, l.TotalSectors() / 2}
			for i, z := range l.Zones {
				end := l.TotalSectors()
				if i+1 < len(l.Zones) {
					end = l.Zones[i+1].FirstLBN
				}
				if end > z.FirstLBN {
					lbns = append(lbns, z.FirstLBN, end-1)
				}
			}
			for _, lbn := range lbns {
				loc, err := l.Locate(lbn)
				if err != nil {
					t.Fatalf("Locate(%d): %v", lbn, err)
				}
				back, err := l.LBNOf(loc)
				if err != nil || back != lbn {
					t.Fatalf("round trip %d -> %+v -> %d (%v)", lbn, loc, back, err)
				}
			}
		}
	})
}
