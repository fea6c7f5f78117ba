package scaling

import (
	"fmt"
	"sync"

	"repro/internal/capacity"
	"repro/internal/geometry"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/thermal"
	"repro/internal/units"
)

// DesignWalk executes the paper's section 4 methodology literally, year by
// year, as a drive designer would:
//
//  1. carry last year's configuration forward with the new densities; if the
//     density growth alone meets the IDR target, done;
//  2. otherwise raise the RPM to the target — if the thermal envelope still
//     holds, done;
//  3. otherwise shrink the platter (the smaller size needs a higher RPM for
//     the same IDR but dissipates far less);
//  4. shrinking costs capacity; when the capacity falls below what the
//     previous year shipped, add a platter and re-run the checks.
//
// The walk stops changing the design once no configuration meets the target
// (the roadmap's falloff); from then on it ships the fastest envelope-legal
// configuration.
type WalkStep struct {
	Year     int
	Size     units.Inches
	Platters int
	RPM      units.RPM
	IDR      units.MBPerSec
	Capacity units.Bytes

	// MeetsTarget reports whether the year's 40% CGR goal was achieved.
	MeetsTarget bool

	// CoolingBudget is the extra cooling (ambient reduction) bought when a
	// platter was added — the paper: adding platters "increase[s] the
	// cooling requirements for the product".
	CoolingBudget units.Celsius

	// Action describes what the designer did this year.
	Action string
}

// WalkConfig parameterises the walk.
type WalkConfig struct {
	FirstYear, LastYear int
	// StartSize seeds the first year's platter size (default 2.6"); the
	// first year has one platter.
	StartSize units.Inches
	// Workers bounds the per-year candidate evaluation fan-out
	// (0 = parallel.Default(); 1 = sequential). The walk itself stays
	// year-sequential — each year's design depends on the last — but the
	// candidate (size, platters) options within a year are independent
	// simulations, and the walk picks the same candidate at any worker
	// count.
	Workers int
}

func (c WalkConfig) withDefaults() WalkConfig {
	if c.FirstYear == 0 {
		c.FirstYear = 2002
	}
	if c.LastYear == 0 {
		c.LastYear = 2012
	}
	if c.StartSize == 0 {
		c.StartSize = 2.6
	}
	return c
}

// walkMaxPlatters bounds step 4's platter additions.
const walkMaxPlatters = 4

// candidate evaluates one (size, platters) option in one year.
type candidate struct {
	size     units.Inches
	platters int
	layout   *capacity.Layout
	maxRPM   units.RPM
	budget   units.Celsius
}

// DesignWalk runs the methodology and returns one step per year.
func DesignWalk(cfg WalkConfig) ([]WalkStep, error) {
	cfg = cfg.withDefaults()
	if cfg.LastYear < cfg.FirstYear {
		return nil, fmt.Errorf("scaling: year range [%d,%d] inverted", cfg.FirstYear, cfg.LastYear)
	}
	// The available platter sizes, largest first, and the paper's
	// density trend.
	sizes := []units.Inches{2.6, 2.1, 1.6}
	trend := DefaultTrend()

	// Envelope speeds depend only on geometry; cache them. The mutex makes
	// the cache safe under the parallel candidate scans (candidates in one
	// batch have distinct geometries, so no work is duplicated).
	var maxRPMMu sync.Mutex
	maxRPM := make(map[geometry.Drive]units.RPM)
	envelopeRPM := func(g geometry.Drive) (units.RPM, error) {
		maxRPMMu.Lock()
		v, ok := maxRPM[g]
		maxRPMMu.Unlock()
		if ok {
			return v, nil
		}
		th, err := thermal.New(g)
		if err != nil {
			return 0, err
		}
		v = th.MaxRPM(thermal.Envelope, 1, thermal.DefaultAmbient)
		maxRPMMu.Lock()
		maxRPM[g] = v
		maxRPMMu.Unlock()
		return v, nil
	}

	// budgets remembers the cooling bought for each platter count, so later
	// years keep the colder ambient once the product line has moved.
	budgets := map[int]units.Celsius{}

	build := func(year int, size units.Inches, platters int) (candidate, error) {
		g := geometry.Drive{PlatterDiameter: size, Platters: platters, FormFactor: geometry.FormFactor35}
		bpi, tpi := trend.Densities(year)
		layout, err := capacity.New(capacity.Config{Geometry: g, BPI: bpi, TPI: tpi, Zones: RoadmapZones})
		if err != nil {
			return candidate{}, err
		}
		budget := budgets[platters]
		var rpm units.RPM
		if budget > 0 {
			th, err := thermal.New(g)
			if err != nil {
				return candidate{}, err
			}
			rpm = th.MaxRPM(thermal.Envelope, 1, thermal.DefaultAmbient-budget)
		} else {
			rpm, err = envelopeRPM(g)
			if err != nil {
				return candidate{}, err
			}
		}
		return candidate{size: size, platters: platters, layout: layout, maxRPM: rpm, budget: budget}, nil
	}

	meets := func(c candidate, target units.MBPerSec) bool {
		return float64(perf.IDR(c.layout, c.maxRPM)) >= float64(target)*(1-TargetTolerance)
	}

	sizeIndex := func(s units.Inches) int {
		for i, v := range sizes {
			if v == s {
				return i
			}
		}
		return -1
	}

	size, platters := cfg.StartSize, 1
	var lastCapacity units.Bytes
	var steps []WalkStep

	for year := cfg.FirstYear; year <= cfg.LastYear; year++ {
		target := TargetIDR(year)
		cur, err := build(year, size, platters)
		if err != nil {
			return nil, err
		}
		action := "density growth alone"
		chosen := cur

		if !meets(cur, target) {
			// Step 3: shrink the platter until the target fits. Every
			// smaller size is evaluated concurrently; the scan then picks
			// the first (largest) size that meets the target, exactly as
			// the sequential walk did.
			action = ""
			idx := sizeIndex(size)
			if idx < 0 {
				return nil, fmt.Errorf("scaling: size %v not in the candidate set", size)
			}
			smaller, err := parallel.Map(cfg.Workers, sizes[idx+1:], func(_ int, s units.Inches) (candidate, error) {
				return build(year, s, platters)
			})
			if err != nil {
				return nil, err
			}
			found := false
			for _, cand := range smaller {
				if meets(cand, target) {
					chosen = cand
					action = fmt.Sprintf("shrank platter to %v", cand.size)
					found = true
					break
				}
			}
			// Step 4: recover lost capacity by adding platters, buying the
			// extra cooling the taller stack needs (the paper's "shift into
			// the 2-platter system ... increase the cooling requirements").
			if found && lastCapacity > 0 && chosen.layout.DeratedCapacity() < lastCapacity &&
				chosen.platters < walkMaxPlatters {
				grown, err := build(year, chosen.size, chosen.platters+1)
				if err != nil {
					return nil, err
				}
				g := geometry.Drive{
					PlatterDiameter: grown.size,
					Platters:        grown.platters,
					FormFactor:      geometry.FormFactor35,
				}
				needed := perf.RPMForIDR(grown.layout, target)
				extra, err := thermal.CoolingBudget(g, needed)
				if err == nil {
					grown.maxRPM = needed
					grown.budget = extra
					if extra > budgets[grown.platters] {
						budgets[grown.platters] = extra
					}
					chosen = grown
					action += fmt.Sprintf(", added a platter (%d total, %.1f C cooling budget)",
						grown.platters, float64(extra))
				}
			}
			if !found {
				// Falloff: ship the fastest legal configuration among all
				// remaining options (evaluated concurrently, reduced in
				// order so ties resolve identically to the sequential scan).
				best := cur
				cands, err := parallel.Map(cfg.Workers, sizes[sizeIndex(size):], func(_ int, s units.Inches) (candidate, error) {
					return build(year, s, platters)
				})
				if err != nil {
					return nil, err
				}
				for _, cand := range cands {
					if perf.IDR(cand.layout, cand.maxRPM) > perf.IDR(best.layout, best.maxRPM) {
						best = cand
					}
				}
				chosen = best
				action = "off the roadmap; shipped fastest legal design"
			}
		} else if size != cfg.StartSize || platters != 1 {
			action = "carried configuration forward"
		}

		// The shipping RPM is the lower of the envelope limit and what the
		// target needs (manufacturers do not overshoot the target, per the
		// paper's reading of Figure 2).
		shipRPM := chosen.maxRPM
		if need := perf.RPMForIDR(chosen.layout, target); need < shipRPM {
			shipRPM = need
		}
		idr := perf.IDR(chosen.layout, shipRPM)
		cap := chosen.layout.DeratedCapacity()
		steps = append(steps, WalkStep{
			Year:          year,
			Size:          chosen.size,
			Platters:      chosen.platters,
			RPM:           shipRPM,
			IDR:           idr,
			Capacity:      cap,
			MeetsTarget:   float64(idr) >= float64(target)*(1-TargetTolerance),
			CoolingBudget: chosen.budget,
			Action:        action,
		})
		size, platters = chosen.size, chosen.platters
		lastCapacity = cap
	}
	return steps, nil
}
