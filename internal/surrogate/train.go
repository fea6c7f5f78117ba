package surrogate

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/thermal"
	"repro/internal/units"
)

// Training defaults.
const (
	DefaultFolds  = 5
	DefaultProbes = 8
	DefaultSeed   = 1

	// trainWindow is the fixed streaming-window size for the expensive
	// latency cells: each window fans out over the worker pool, then its
	// results are reported in input order. The window size is a constant
	// (never worker-derived) so the emitted cell stream — and therefore a
	// training job's journal — is byte-identical at any worker count.
	trainWindow = 16
)

// TrainConfig describes the sampling grid and fitting options.
type TrainConfig struct {
	// Grid axes. Years and RPMs must be strictly ascending with at least
	// two nodes each; Hardware and Workloads must be non-empty.
	Years     []int
	RPMs      []float64
	Hardware  []Hardware
	Workloads []string

	// Requests per exact replay (see ExactConfig; zero means default).
	// Training always uses the default zone count and platter diameter.
	Requests int

	// Refine enables quadratic interpolation along the RPM axis.
	Refine bool

	// Cross-validation: Folds held-out probe batches of Probes seeded
	// off-grid queries each (zero means DefaultFolds/DefaultProbes), with
	// probe placement driven by Seed (zero means DefaultSeed).
	Folds  int
	Probes int
	Seed   int64

	// Workers bounds the sampling fan-out (<= 0 uses parallel.Default()).
	Workers int
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Folds == 0 {
		c.Folds = DefaultFolds
	}
	if c.Probes == 0 {
		c.Probes = DefaultProbes
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return c
}

func (c TrainConfig) validate() error {
	switch {
	case len(c.Years) < 2:
		return fmt.Errorf("surrogate: %d year nodes (need >= 2)", len(c.Years))
	case len(c.RPMs) < 2:
		return fmt.Errorf("surrogate: %d rpm nodes (need >= 2)", len(c.RPMs))
	case len(c.Hardware) == 0:
		return fmt.Errorf("surrogate: no hardware combinations")
	case len(c.Workloads) == 0:
		return fmt.Errorf("surrogate: no workloads")
	case c.Folds < 1 || c.Folds > 16:
		return fmt.Errorf("surrogate: folds %d outside [1, 16]", c.Folds)
	case c.Probes < 1 || c.Probes > 256:
		return fmt.Errorf("surrogate: probes %d outside [1, 256]", c.Probes)
	}
	if !sort.IntsAreSorted(c.Years) || !sort.Float64sAreSorted(c.RPMs) {
		return fmt.Errorf("surrogate: grid axes must be ascending")
	}
	for i := 1; i < len(c.Years); i++ {
		if c.Years[i] == c.Years[i-1] {
			return fmt.Errorf("surrogate: duplicate year node %d", c.Years[i])
		}
	}
	for i := 1; i < len(c.RPMs); i++ {
		if c.RPMs[i] == c.RPMs[i-1] {
			return fmt.Errorf("surrogate: duplicate rpm node %v", c.RPMs[i])
		}
	}
	// Every grid corner must be a valid query; a bad grid must fail here,
	// not be silently baked into a model.
	for _, h := range c.Hardware {
		for _, yr := range []int{c.Years[0], c.Years[len(c.Years)-1]} {
			for _, rpm := range []float64{c.RPMs[0], c.RPMs[len(c.RPMs)-1]} {
				q := Query{Year: yr, RPM: rpm, Platters: h.Platters,
					FormFactor: h.FormFactor, Workload: c.Workloads[0]}
				if err := q.Validate(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Validate reports whether the config (after defaults) is trainable —
// the admission-control check serving layers run before accepting a job.
func (c TrainConfig) Validate() error {
	return c.withDefaults().validate()
}

// LatencyCells returns the number of expensive replay cells the grid
// implies (for work-size caps).
func (c TrainConfig) LatencyCells() int {
	return len(c.Workloads) * len(c.Years) * len(c.RPMs)
}

// Cell is one sampled grid point, streamed to the progress callback in a
// fixed order (temperature cells first, then latency cells; each axis in
// config order) regardless of worker count.
type Cell struct {
	Kind       string  `json:"kind"` // "temp" or "latency"
	Index      int     `json:"index"`
	Total      int     `json:"total"`
	Workload   string  `json:"workload,omitempty"`
	Year       int     `json:"year,omitempty"`
	RPM        float64 `json:"rpm"`
	Platters   int     `json:"platters,omitempty"`
	FormFactor string  `json:"form_factor,omitempty"`
	TempC      float64 `json:"temp_c,omitempty"`
	MeanMillis float64 `json:"mean_ms,omitempty"`
	P95Millis  float64 `json:"p95_ms,omitempty"`
}

// Train samples the exact engine over the configured grid, fits the
// interpolation tables, and cross-validates the fit on seeded held-out
// probes. The progress callback (may be nil) receives every sampled cell
// in deterministic order; returning an error from it aborts the run. The
// returned model is byte-identical for a given config at any worker count.
func Train(ctx context.Context, cfg TrainConfig, progress func(Cell) error) (*Model, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	exact, err := NewExact(ExactConfig{Requests: cfg.Requests})
	if err != nil {
		return nil, err
	}
	ecfg := exact.Config()
	m := &Model{
		Diameter:  ecfg.Diameter,
		Zones:     ecfg.Zones,
		Requests:  ecfg.Requests,
		Refine:    cfg.Refine,
		Years:     append([]int(nil), cfg.Years...),
		RPMs:      append([]float64(nil), cfg.RPMs...),
		Hardware:  append([]Hardware(nil), cfg.Hardware...),
		Workloads: append([]string(nil), cfg.Workloads...),
	}

	if err := sampleTemp(ctx, cfg, exact, m, progress); err != nil {
		return nil, err
	}
	if err := sampleIDR(exact, m); err != nil {
		return nil, err
	}
	if err := sampleLatency(ctx, cfg, exact, m, progress); err != nil {
		return nil, err
	}

	rep, err := crossValidate(ctx, cfg, exact, m)
	if err != nil {
		return nil, err
	}
	m.CV = rep

	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// sampleTemp fills TempC[h][r] with steady-state worst-case air
// temperatures. Thermal solves are cheap; one fan-out covers the grid.
func sampleTemp(ctx context.Context, cfg TrainConfig, exact *Exact, m *Model, progress func(Cell) error) error {
	type tcell struct {
		h, r int
	}
	cells := make([]tcell, 0, len(m.Hardware)*len(m.RPMs))
	for h := range m.Hardware {
		for r := range m.RPMs {
			cells = append(cells, tcell{h, r})
		}
	}
	vals, err := parallel.MapCtx(ctx, cfg.Workers, cells, func(_ int, c tcell) (float64, error) {
		hw := m.Hardware[c.h]
		ff, err := ParseFormFactor(hw.FormFactor)
		if err != nil {
			return 0, err
		}
		tm, err := exact.thermalModel(hw.Platters, ff)
		if err != nil {
			return 0, err
		}
		st := tm.SteadyState(thermal.WorstCase(units.RPM(m.RPMs[c.r])))
		return float64(st.Air), nil
	})
	if err != nil {
		return err
	}
	m.TempC = make([][]float64, len(m.Hardware))
	for h := range m.TempC {
		m.TempC[h] = make([]float64, len(m.RPMs))
	}
	for i, c := range cells {
		m.TempC[c.h][c.r] = vals[i]
		if progress != nil {
			hw := m.Hardware[c.h]
			if err := progress(Cell{
				Kind: "temp", Index: i, Total: len(cells),
				RPM: m.RPMs[c.r], Platters: hw.Platters, FormFactor: hw.FormFactor,
				TempC: vals[i],
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// sampleIDR fills IDR[y][r]; the layout derivations are memoized and the
// data-rate formula is closed-form, so no fan-out is needed.
func sampleIDR(exact *Exact, m *Model) error {
	m.IDR = make([][]float64, len(m.Years))
	for y, year := range m.Years {
		m.IDR[y] = make([]float64, len(m.RPMs))
		layout, err := exact.layoutFor(year)
		if err != nil {
			return err
		}
		for r, rpm := range m.RPMs {
			m.IDR[y][r] = float64(perf.IDR(layout, units.RPM(rpm)))
		}
	}
	return nil
}

// sampleLatency fills MeanMS/P95MS by replaying each (workload, year)
// trace at every RPM node. Cells stream through fixed-size windows: fan
// out, then report in input order, so the cell stream is byte-identical at
// any worker count.
func sampleLatency(ctx context.Context, cfg TrainConfig, exact *Exact, m *Model, progress func(Cell) error) error {
	type lcell struct {
		w, y, r int
	}
	cells := make([]lcell, 0, len(m.Workloads)*len(m.Years)*len(m.RPMs))
	for w := range m.Workloads {
		for y := range m.Years {
			for r := range m.RPMs {
				cells = append(cells, lcell{w, y, r})
			}
		}
	}
	m.MeanMS = make([][][]float64, len(m.Workloads))
	m.P95MS = make([][][]float64, len(m.Workloads))
	for w := range m.Workloads {
		m.MeanMS[w] = make([][]float64, len(m.Years))
		m.P95MS[w] = make([][]float64, len(m.Years))
		for y := range m.Years {
			m.MeanMS[w][y] = make([]float64, len(m.RPMs))
			m.P95MS[w][y] = make([]float64, len(m.RPMs))
		}
	}
	hw := m.Hardware[0]
	for start := 0; start < len(cells); start += trainWindow {
		end := min(start+trainWindow, len(cells))
		window := cells[start:end]
		vals, err := parallel.MapCtx(ctx, cfg.Workers, window, func(_ int, c lcell) (Answer, error) {
			return exact.Solve(Query{
				Year: m.Years[c.y], RPM: m.RPMs[c.r],
				Platters: hw.Platters, FormFactor: hw.FormFactor,
				Workload: m.Workloads[c.w],
			})
		})
		if err != nil {
			return err
		}
		for i, c := range window {
			m.MeanMS[c.w][c.y][c.r] = vals[i].MeanMillis
			m.P95MS[c.w][c.y][c.r] = vals[i].P95Millis
			if progress != nil {
				if err := progress(Cell{
					Kind: "latency", Index: start + i, Total: len(cells),
					Workload: m.Workloads[c.w], Year: m.Years[c.y], RPM: m.RPMs[c.r],
					MeanMillis: vals[i].MeanMillis, P95Millis: vals[i].P95Millis,
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// relFloors guard the relative-error denominators: channels near zero
// would otherwise report meaningless blow-ups. Units: °C, MB/s, ms, ms.
var relFloors = [4]float64{1, 1, 0.5, 0.5}

// crossValidate measures the fitted model against held-out exact runs:
// Folds batches of Probes seeded queries placed off-grid inside the hull
// (integer years, continuous RPM). Each fold reports max/mean relative
// error per channel; the overall block aggregates every probe.
func crossValidate(ctx context.Context, cfg TrainConfig, exact *Exact, m *Model) (Report, error) {
	rep := Report{Seed: cfg.Seed, Probes: cfg.Folds * cfg.Probes}
	var overall [4]errAgg
	for fold := 0; fold < cfg.Folds; fold++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(fold)))
		probes := make([]Query, cfg.Probes)
		for i := range probes {
			hw := m.Hardware[rng.Intn(len(m.Hardware))]
			minY, maxY := m.Years[0], m.Years[len(m.Years)-1]
			minR, maxR := m.RPMs[0], m.RPMs[len(m.RPMs)-1]
			probes[i] = Query{
				Year:       minY + rng.Intn(maxY-minY+1),
				RPM:        minR + rng.Float64()*(maxR-minR),
				Platters:   hw.Platters,
				FormFactor: hw.FormFactor,
				Workload:   m.Workloads[rng.Intn(len(m.Workloads))],
			}
		}
		exactAns, err := parallel.MapCtx(ctx, cfg.Workers, probes, func(_ int, q Query) (Answer, error) {
			return exact.Solve(q)
		})
		if err != nil {
			return Report{}, err
		}
		var agg [4]errAgg
		for i, q := range probes {
			sur, err := m.Eval(q)
			if err != nil {
				return Report{}, fmt.Errorf("surrogate: probe inside hull rejected: %w", err)
			}
			for ch := 0; ch < 4; ch++ {
				e := exactAns[i].channel(ch)
				rel := math.Abs(sur.channel(ch)-e) / math.Max(math.Abs(e), relFloors[ch])
				agg[ch].add(rel)
				overall[ch].add(rel)
			}
		}
		fr := FoldReport{Fold: fold, Probes: cfg.Probes}
		for ch := 0; ch < 4; ch++ {
			fr.Channels = append(fr.Channels, agg[ch].report(Channels[ch]))
		}
		rep.Folds = append(rep.Folds, fr)
	}
	for ch := 0; ch < 4; ch++ {
		rep.Overall = append(rep.Overall, overall[ch].report(Channels[ch]))
	}
	return rep, nil
}

// errAgg accumulates relative errors.
type errAgg struct {
	max, sum float64
	n        int
}

func (a *errAgg) add(rel float64) {
	if rel > a.max {
		a.max = rel
	}
	a.sum += rel
	a.n++
}

func (a *errAgg) report(channel string) ChannelError {
	ce := ChannelError{Channel: channel, MaxRel: a.max}
	if a.n > 0 {
		ce.MeanRel = a.sum / float64(a.n)
	}
	return ce
}
