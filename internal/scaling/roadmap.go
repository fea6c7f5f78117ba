package scaling

import (
	"fmt"

	"repro/internal/capacity"
	"repro/internal/geometry"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/thermal"
	"repro/internal/units"
)

// TargetTolerance is the grace applied when judging whether a configuration
// meets the year's IDR goal. The paper itself judges this way: its 2.6"
// envelope speed (15,020 RPM) is 0.5% short of the 2002 requirement
// (15,098 RPM) yet the 2.6" family is described as falling off only from
// 2003 onwards.
const TargetTolerance = 0.005

// Config parameterises one roadmap run.
type Config struct {
	// FirstYear and LastYear bound the roadmap (inclusive);
	// the paper runs 2002..2012.
	FirstYear, LastYear int

	// PlatterSizes are the candidate media diameters; the paper uses
	// 2.6", 2.1" and 1.6".
	PlatterSizes []units.Inches

	// Platters is the stack height (1, 2 or 4 in the paper).
	Platters int

	// FormFactor selects the enclosure (3.5" except in the form-factor
	// sensitivity study).
	FormFactor geometry.FormFactor

	// Trend projects the densities (zero value = DefaultTrend()).
	Trend Trend

	// AmbientDelta lowers the external air temperature below the default
	// 28 C — the Figure 3 cooling study uses -5 and -10.
	AmbientDelta units.Celsius

	// VCMOff designs against the VCM-off (idle/sequential) thermal profile
	// instead of the worst-case always-seeking one — the Figure 5
	// thermal-slack variant. The default (false) is the paper's
	// envelope design.
	VCMOff bool

	// DisableCoolingBudget turns off the per-platter-count cooling budget
	// the paper grants multi-platter stacks at the 2002 starting point.
	DisableCoolingBudget bool

	// Workers bounds the sweep engine's fan-out over the (size, year) grid
	// (0 = parallel.Default(), i.e. GOMAXPROCS; 1 = sequential). Every
	// worker count produces the identical point list.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.FirstYear == 0 {
		c.FirstYear = 2002
	}
	if c.LastYear == 0 {
		c.LastYear = 2012
	}
	if len(c.PlatterSizes) == 0 {
		c.PlatterSizes = []units.Inches{2.6, 2.1, 1.6}
	}
	if c.Platters == 0 {
		c.Platters = 1
	}
	if (c.Trend == Trend{}) {
		c.Trend = DefaultTrend()
	}
	return c
}

// Point is one (year, platter size) cell of the roadmap.
type Point struct {
	Year     int
	Size     units.Inches
	Platters int

	// BPI and TPI are the year's projected densities.
	BPI units.BPI
	TPI units.TPI

	// TargetIDR is the 40%-CGR goal for the year.
	TargetIDR units.MBPerSec

	// IDRDensity is the data rate obtainable at the reference RPM with the
	// year's densities alone — the Table 3 "IDR density" column.
	IDRDensity units.MBPerSec

	// RequiredRPM is the speed that would meet TargetIDR, thermal
	// consequences be damned — the Table 3 "RPM" column.
	RequiredRPM units.RPM

	// RequiredTemp is the steady internal-air temperature at RequiredRPM —
	// the Table 3 "Temperature" column.
	RequiredTemp units.Celsius

	// MaxRPM is the highest speed within the thermal envelope.
	MaxRPM units.RPM

	// MaxIDR is the data rate at MaxRPM — the Figure 2 roadmap value.
	MaxIDR units.MBPerSec

	// Capacity is the derated capacity of the year's layout — the
	// Figure 2 capacity roadmap value.
	Capacity units.Bytes

	// MeetsTarget reports whether MaxIDR reaches the year's goal.
	MeetsTarget bool

	// CoolingBudget is the ambient reduction granted to this platter count
	// (0 for single-platter stacks).
	CoolingBudget units.Celsius
}

// sizeEnvelope is the per-platter-size stage 1 result: the geometry's
// thermal model and envelope speed, which every year cell of that size
// shares.
type sizeEnvelope struct {
	geom    geometry.Drive
	th      *thermal.Model
	ambient units.Celsius
	maxRPM  units.RPM
}

// Roadmap computes the full grid of points for a configuration. The
// candidate evaluation fans out over the sweep engine in two stages: first
// one envelope search per platter size (the expensive MaxRPM bisection),
// then the full (size, year) grid of capacity layouts and steady solves.
// Points come back ordered exactly as the sequential loops produced them —
// sizes outermost, years ascending — at any worker count.
func Roadmap(cfg Config) ([]Point, error) {
	cfg = cfg.withDefaults()
	if cfg.LastYear < cfg.FirstYear {
		return nil, fmt.Errorf("scaling: year range [%d,%d] inverted", cfg.FirstYear, cfg.LastYear)
	}

	budget, err := coolingBudget(cfg)
	if err != nil {
		return nil, err
	}

	duty := 1.0
	if cfg.VCMOff {
		duty = 0
	}

	// Stage 1: envelope speed per platter size.
	envs, err := parallel.Map(cfg.Workers, cfg.PlatterSizes, func(_ int, size units.Inches) (sizeEnvelope, error) {
		geom := geometry.Drive{
			PlatterDiameter: size,
			Platters:        cfg.Platters,
			FormFactor:      cfg.FormFactor,
		}
		th, err := thermal.New(geom)
		if err != nil {
			return sizeEnvelope{}, fmt.Errorf("scaling: %v platter: %w", size, err)
		}
		ambient := thermal.DefaultAmbient - budget + cfg.AmbientDelta
		return sizeEnvelope{
			geom:    geom,
			th:      th,
			ambient: ambient,
			maxRPM:  th.MaxRPM(thermal.Envelope, duty, ambient),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	years := make([]int, 0, cfg.LastYear-cfg.FirstYear+1)
	for year := cfg.FirstYear; year <= cfg.LastYear; year++ {
		years = append(years, year)
	}

	// Stage 2: the (size, year) grid. Cells of one size share that size's
	// thermal model; its solve cache is concurrency-safe and verified
	// exact, so concurrent cells stay bit-identical to sequential ones.
	rows, err := parallel.Grid(cfg.Workers, envs, years, func(i, _ int, env sizeEnvelope, year int) (Point, error) {
		size := cfg.PlatterSizes[i]
		bpi, tpi := cfg.Trend.Densities(year)
		layout, err := capacity.New(capacity.Config{
			Geometry: env.geom,
			BPI:      bpi,
			TPI:      tpi,
			Zones:    RoadmapZones,
		})
		if err != nil {
			return Point{}, fmt.Errorf("scaling: year %d size %v: %w", year, size, err)
		}
		target := TargetIDR(year)
		density := perf.IDR(layout, ReferenceRPM)
		required := perf.RPMForIDR(layout, target)
		reqTemp := env.th.SteadyState(thermal.Load{
			RPM:     required,
			VCMDuty: duty,
			Ambient: env.ambient,
		}).Air
		maxIDR := perf.IDR(layout, env.maxRPM)

		return Point{
			Year:          year,
			Size:          size,
			Platters:      cfg.Platters,
			BPI:           bpi,
			TPI:           tpi,
			TargetIDR:     target,
			IDRDensity:    density,
			RequiredRPM:   required,
			RequiredTemp:  reqTemp,
			MaxRPM:        env.maxRPM,
			MaxIDR:        maxIDR,
			Capacity:      layout.DeratedCapacity(),
			MeetsTarget:   float64(maxIDR) >= float64(target)*(1-TargetTolerance),
			CoolingBudget: budget,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	pts := make([]Point, 0, len(envs)*len(years))
	for _, row := range rows {
		pts = append(pts, row...)
	}
	return pts, nil
}

// coolingBudget computes the paper's per-platter-count ambient allowance: the
// reduction that lets the largest platter size run the roadmap's first-year
// required RPM at the envelope. Single-platter stacks need none.
func coolingBudget(cfg Config) (units.Celsius, error) {
	if cfg.DisableCoolingBudget || cfg.Platters <= 1 {
		return 0, nil
	}
	size := cfg.PlatterSizes[0]
	for _, s := range cfg.PlatterSizes[1:] {
		if s > size {
			size = s
		}
	}
	geom := geometry.Drive{
		PlatterDiameter: size,
		Platters:        cfg.Platters,
		FormFactor:      cfg.FormFactor,
	}
	bpi, tpi := cfg.Trend.Densities(cfg.FirstYear)
	layout, err := capacity.New(capacity.Config{Geometry: geom, BPI: bpi, TPI: tpi, Zones: RoadmapZones})
	if err != nil {
		return 0, fmt.Errorf("scaling: cooling budget: %w", err)
	}
	required := perf.RPMForIDR(layout, TargetIDR(cfg.FirstYear))
	return thermal.CoolingBudget(geom, required)
}

// ByYearSize indexes a roadmap by (year, size) for table rendering.
func ByYearSize(pts []Point) map[int]map[units.Inches]Point {
	out := make(map[int]map[units.Inches]Point)
	for _, p := range pts {
		m := out[p.Year]
		if m == nil {
			m = make(map[units.Inches]Point)
			out[p.Year] = m
		}
		m[p.Size] = p
	}
	return out
}

// FalloffYear returns the first year in which no configured platter size
// meets the target IDR, or 0 if every year is met by some size.
func FalloffYear(pts []Point) int {
	met := make(map[int]bool)
	first, last := 1<<30, 0
	for _, p := range pts {
		if p.Year < first {
			first = p.Year
		}
		if p.Year > last {
			last = p.Year
		}
		if p.MeetsTarget {
			met[p.Year] = true
		}
	}
	for y := first; y <= last; y++ {
		if !met[y] {
			return y
		}
	}
	return 0
}

// BestIDR returns, per year, the highest envelope-respecting IDR across the
// configured platter sizes — the upper envelope of the Figure 2 curves.
func BestIDR(pts []Point) map[int]units.MBPerSec {
	out := make(map[int]units.MBPerSec)
	for _, p := range pts {
		if p.MaxIDR > out[p.Year] {
			out[p.Year] = p.MaxIDR
		}
	}
	return out
}
