package capacity_test

import (
	"math/rand"
	"testing"

	"repro/internal/capacity"
	"repro/internal/geometry"
	"repro/internal/scaling"
	"repro/internal/units"
)

// refLocate is Locate as first written: a binary search for the last zone
// whose FirstLBN <= lbn, then the same divisions. It is the oracle for the
// indexed zone lookup.
func refLocate(l *capacity.Layout, lbn int64) capacity.Location {
	lo, hi := 0, len(l.Zones)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if l.Zones[mid].FirstLBN <= lbn {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	z := &l.Zones[lo]
	rel := lbn - z.FirstLBN
	perCyl := int64(l.Surfaces) * int64(z.SectorsPerTrack)
	rem := rel % perCyl
	return capacity.Location{
		Cylinder: z.FirstCylinder + int(rel/perCyl),
		Surface:  int(rem / int64(z.SectorsPerTrack)),
		Sector:   int(rem % int64(z.SectorsPerTrack)),
	}
}

// TestLocateMatchesBinarySearch compares Locate with refLocate next to
// every zone boundary (FirstLBN-1, FirstLBN, FirstLBN+1), at the last LBN
// and at seeded random LBNs, on layouts with the roadmap's zone count, one
// zone, 255 zones, and a low-density drive whose inner zones hold no
// sectors (several zones then share one FirstLBN, and the answer must be
// the last of them).
func TestLocateMatchesBinarySearch(t *testing.T) {
	cheetah := geometry.Drive{PlatterDiameter: 2.6, Platters: 4, FormFactor: geometry.FormFactor35}
	cases := []struct {
		name string
		cfg  capacity.Config
	}{
		{"roadmap-zones", capacity.Config{Geometry: cheetah, BPI: 533000, TPI: 64000, Zones: scaling.RoadmapZones}},
		{"roadmap-zones-terabit", capacity.Config{
			Geometry: geometry.Drive{PlatterDiameter: 2.6, Platters: 1, FormFactor: geometry.FormFactor35},
			BPI:      1.9e6, TPI: 540000, Zones: scaling.RoadmapZones}},
		{"one-zone", capacity.Config{Geometry: cheetah, BPI: 533000, TPI: 64000, Zones: 1}},
		{"255-zones", capacity.Config{Geometry: cheetah, BPI: 533000, TPI: 64000, Zones: 255}},
		{"zero-sector-zones", capacity.Config{
			Geometry: geometry.Drive{PlatterDiameter: 2.6, Platters: 1, FormFactor: geometry.FormFactor35},
			BPI:      units.BPI(800), TPI: 2000, Zones: scaling.RoadmapZones}},
	}
	for _, tc := range cases {
		l, err := capacity.New(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		total := l.TotalSectors()
		var lbns []int64
		empty := 0
		for _, z := range l.Zones {
			lbns = append(lbns, z.FirstLBN-1, z.FirstLBN, z.FirstLBN+1)
			if z.SectorsPerTrack == 0 {
				empty++
			}
		}
		if tc.name == "zero-sector-zones" {
			if empty == 0 || total == 0 {
				t.Fatalf("%s: %d empty zones, %d sectors; the case needs both", tc.name, empty, total)
			}
			for lbn := int64(0); lbn < total; lbn++ {
				lbns = append(lbns, lbn)
			}
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 2000; i++ {
			lbns = append(lbns, rng.Int63n(total))
		}
		lbns = append(lbns, total-1)
		for _, lbn := range lbns {
			if lbn < 0 || lbn >= total {
				continue
			}
			got, err := l.Locate(lbn)
			if err != nil {
				t.Fatalf("%s: Locate(%d): %v", tc.name, lbn, err)
			}
			if want := refLocate(l, lbn); got != want {
				t.Fatalf("%s: Locate(%d) = %+v, binary search %+v", tc.name, lbn, got, want)
			}
		}
	}
}
