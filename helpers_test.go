package repro

import (
	"math/rand"
	"time"

	"repro/internal/capacity"
	"repro/internal/disksim"
	"repro/internal/units"
)

// newDisk builds a simulator disk on a layout.
func newDisk(layout *capacity.Layout, rpm units.RPM) (*disksim.Disk, error) {
	return disksim.New(disksim.Config{Layout: layout, RPM: rpm})
}

// syntheticStream is a deterministic random request stream at a given rate.
func syntheticStream(total int64, n int, rate float64) []disksim.Request {
	rng := rand.New(rand.NewSource(1))
	reqs := make([]disksim.Request, n)
	now := 0.0
	for i := range reqs {
		now += rng.ExpFloat64() / rate
		reqs[i] = disksim.Request{
			ID:      int64(i),
			Arrival: time.Duration(now * float64(time.Second)),
			LBN:     rng.Int63n(total - 64),
			Sectors: 8,
			Write:   rng.Float64() < 0.3,
		}
	}
	return reqs
}
