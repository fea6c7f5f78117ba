package core

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/array"
	"repro/internal/capacity"
	"repro/internal/drive"
	"repro/internal/dtm"
	"repro/internal/parallel"
	"repro/internal/power"
	"repro/internal/reliability"
	"repro/internal/scaling"
	"repro/internal/thermal"
	"repro/internal/units"
)

// Experiment is one reproducible artifact of the paper (or one of this
// repository's extensions), addressable by id.
type Experiment struct {
	// ID is the DESIGN.md experiment id ("T1", "F2", "X3", ...).
	ID string

	// Title is the one-line description.
	Title string

	// Run regenerates the artifact and writes its report.
	Run func(w io.Writer) error
}

// Options scales the expensive experiments.
type Options struct {
	// Figure4Requests is the per-workload trace length (<= 0 uses the
	// paper's full counts).
	Figure4Requests int

	// Workers bounds the sweep engine's fan-out across and within
	// experiments (0 = parallel.Default(), i.e. GOMAXPROCS;
	// 1 = sequential). The rendered output is byte-identical at any
	// worker count.
	Workers int

	// Obs carries optional observability sinks. When enabled, Figure 4
	// runs on the streaming path (whose means match the batch path bit
	// for bit) so the per-step instrumentation hooks are live; the
	// rendered report is unchanged.
	Obs Observe
}

// Experiments returns the full registry in presentation order.
func Experiments(opt Options) []Experiment {
	return []Experiment{
		{"T1", "Table 1: capacity & IDR validation", expTable1},
		{"T2", "Table 2: envelope invariance", expTable2},
		{"F1", "Figure 1: Cheetah 15K.3 thermal transient", expFigure1},
		{"T3", "Table 3: required RPM and temperature", expTable3},
		{"F2", "Figure 2: thermally-constrained roadmap", expFigure2},
		{"F3", "Figure 3: cooling sensitivity", expFigure3},
		{"W4", "Section 4 design walk", expDesignWalk},
		{"F4", "Figure 4: workload response times vs RPM",
			func(w io.Writer) error { return expFigure4(w, opt.Figure4Requests, opt.Workers, opt.Obs) }},
		{"F5", "Figure 5: thermal slack", expFigure5},
		{"F7", "Figure 7: throttling ratios", expFigure7},
		{"X2", "Ablations: capacity overheads, air properties", expAblations},
		{"X3", "Extension: power and energy", expPower},
		{"X4", "Extension: DTM for reliability", expReliability},
		{"X5", "Extension: chassis-level array thermals", expArray},
	}
}

// RunByID runs one experiment.
func RunByID(w io.Writer, id string, opt Options) error {
	for _, e := range Experiments(opt) {
		if e.ID == id {
			fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Title)
			return e.Run(w)
		}
	}
	return fmt.Errorf("core: unknown experiment %q", id)
}

// renderedExperiment is one experiment's buffered report: the header plus
// whatever the run wrote before finishing (or failing).
type renderedExperiment struct {
	out []byte
	err error
}

// RunAll runs the full suite. The experiments fan out over the sweep engine,
// each rendering into its own buffer; the buffers are then written in
// registry order, and a failure is reported after that experiment's partial
// output — so the bytes on w match the sequential run at any worker count.
func RunAll(w io.Writer, opt Options) error {
	exps := Experiments(opt)
	outs, _ := parallel.Map(opt.Workers, exps, func(_ int, e Experiment) (renderedExperiment, error) {
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "== %s: %s ==\n", e.ID, e.Title)
		// Failures are carried as values so every experiment still renders;
		// the ordered replay below decides where the suite stops.
		err := e.Run(&buf)
		return renderedExperiment{out: buf.Bytes(), err: err}, nil
	})
	for i, e := range exps {
		if _, err := w.Write(outs[i].out); err != nil {
			return err
		}
		if outs[i].err != nil {
			return fmt.Errorf("%s: %w", e.ID, outs[i].err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func expTable1(w io.Writer) error {
	var worstCap float64
	for _, v := range drive.Table1 {
		m, err := drive.New(v.Config())
		if err != nil {
			return err
		}
		capErr := relAbs(m.Capacity().GB(), v.PaperModelCapGB)
		if capErr > worstCap {
			worstCap = capErr
		}
		fmt.Fprintf(w, "  %-26s cap %6.1f GB (paper model %6.1f)  idr %6.1f MB/s (paper model %6.1f)\n",
			v.Name, m.Capacity().GB(), v.PaperModelCapGB,
			float64(m.IDR()), float64(v.PaperModelIDR))
	}
	fmt.Fprintf(w, "  worst capacity deviation from the paper's model column: %.1f%%\n", worstCap*100)
	return nil
}

func expTable2(w io.Writer) error {
	for _, e := range drive.Table2 {
		fmt.Fprintf(w, "  %-26s %d %6.0f RPM: wet-bulb %.1f C, rated max %.1f C\n",
			e.Name, e.Year, float64(e.RPM), float64(e.ExternalWetBulb), float64(e.MaxOperating))
	}
	fmt.Fprintf(w, "  envelope %.2f C + electronics %.0f C ~= the rated 55 C class\n",
		float64(thermal.Envelope), float64(drive.ElectronicsDelta))
	return nil
}

func expFigure1(w io.Writer) error {
	m, err := thermal.New(thermal.ReferenceDrive)
	if err != nil {
		return err
	}
	tr := m.NewTransient(thermal.Uniform(thermal.DefaultAmbient))
	load := thermal.WorstCase(15000)
	for _, mk := range []time.Duration{time.Minute, 10 * time.Minute, 48 * time.Minute, 2 * time.Hour} {
		tr.Advance(load, mk-tr.Now())
		fmt.Fprintf(w, "  t=%7v  T_air=%.2f C\n", mk, float64(tr.State().Air))
	}
	fmt.Fprintln(w, "  paper: 28 -> ~33 C in the first minute, steady 45.22 C by ~48 min")
	return nil
}

func expTable3(w io.Writer) error {
	pts, err := scaling.Roadmap(scaling.Config{})
	if err != nil {
		return err
	}
	idx := scaling.ByYearSize(pts)
	paperRPM := map[int][3]float64{
		2002: {15098, 18692, 24533}, 2005: {24534, 30367, 39857},
		2009: {55819, 69109, 90680}, 2012: {143470, 177629, 233050},
	}
	sizes := []units.Inches{2.6, 2.1, 1.6}
	for _, y := range []int{2002, 2005, 2009, 2012} {
		fmt.Fprintf(w, "  %d:", y)
		for i, s := range sizes {
			p := idx[y][s]
			fmt.Fprintf(w, "  %v: rpm %6.0f (paper %6.0f) T %6.1f C",
				s, float64(p.RequiredRPM), paperRPM[y][i], float64(p.RequiredTemp))
		}
		fmt.Fprintln(w)
	}
	return nil
}

func expFigure2(w io.Writer) error {
	for _, platters := range []int{1, 2, 4} {
		pts, err := scaling.Roadmap(scaling.Config{Platters: platters})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %d-platter: falloff year %d (cooling budget %.2f C)\n",
			platters, scaling.FalloffYear(pts), float64(pts[0].CoolingBudget))
	}
	pts, err := scaling.Roadmap(scaling.Config{})
	if err != nil {
		return err
	}
	idx := scaling.ByYearSize(pts)
	fmt.Fprintf(w, "  2005 capacities: 2.6\" %.1f GB (paper 93.67), 2.1\" %.1f GB (61.13), 1.6\" %.1f GB (35.48)\n",
		idx[2005][2.6].Capacity.GB(), idx[2005][2.1].Capacity.GB(), idx[2005][1.6].Capacity.GB())
	fmt.Fprintf(w, "  2.6\" meets 2002=%v 2003=%v (paper: falls off from 2003)\n",
		idx[2002][2.6].MeetsTarget, idx[2003][2.6].MeetsTarget)
	return nil
}

func expFigure3(w io.Writer) error {
	for _, delta := range []units.Celsius{0, -5, -10} {
		pts, err := scaling.Roadmap(scaling.Config{AmbientDelta: delta})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  ambient %+3.0f C: family falloff year %d\n", float64(delta), scaling.FalloffYear(pts))
	}
	fmt.Fprintln(w, "  paper: 2007 / 2008 / 2009 — one extra year per ~5 C")
	return nil
}

func expDesignWalk(w io.Writer) error {
	steps, err := scaling.DesignWalk(scaling.WalkConfig{})
	if err != nil {
		return err
	}
	for _, s := range steps {
		meets := " "
		if s.MeetsTarget {
			meets = "*"
		}
		fmt.Fprintf(w, "  %d %s %v x%d @ %6.0f RPM: %7.1f MB/s, %7.1f GB  %s\n",
			s.Year, meets, s.Size, s.Platters, float64(s.RPM),
			float64(s.IDR), s.Capacity.GB(), s.Action)
	}
	return nil
}

func expFigure4(w io.Writer, requests, workers int, ob Observe) error {
	paper := map[string][4]float64{
		"HPL Openmail":     {54.54, 25.93, 18.61, 15.35},
		"OLTP Application": {5.66, 4.48, 3.91, 3.57},
		"Search-Engine":    {16.22, 10.72, 8.63, 7.55},
		"TPC-C":            {6.50, 3.23, 2.46, 2.06},
		"TPC-H":            {4.91, 3.25, 2.64, 2.32},
	}
	results, err := RunAllFigure4StreamObs(requests, workers, ob)
	if err != nil {
		return err
	}
	for _, res := range results {
		p := paper[res.Workload.Name]
		imp := res.Improvements()
		pImp := [3]float64{(p[0] - p[1]) / p[0], (p[0] - p[2]) / p[0], (p[0] - p[3]) / p[0]}
		fmt.Fprintf(w, "  %-17s base %6.2f ms (paper %5.2f); gains +%4.1f%%/%4.1f%% +%4.1f%%/%4.1f%% +%4.1f%%/%4.1f%% (ours/paper)\n",
			res.Workload.Name, res.Steps[0].MeanMillis, p[0],
			imp[0]*100, pImp[0]*100, imp[1]*100, pImp[1]*100, imp[2]*100, pImp[2]*100)
	}
	return nil
}

func expFigure5(w io.Writer) error {
	pts, err := dtm.Slack(nil, 1, thermal.DefaultAmbient)
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Fprintf(w, "  %v: %6.0f -> %6.0f RPM (slack %5.0f, VCM %.3f W)\n",
			p.Size, float64(p.EnvelopeRPM), float64(p.VCMOffRPM),
			float64(p.SlackRPM()), float64(p.VCMPower))
	}
	fmt.Fprintln(w, "  paper: 2.6\" 15,020 -> 26,750; slack shrinks with platter size")
	return nil
}

func expFigure7(w io.Writer) error {
	for _, c := range []struct {
		name string
		e    dtm.ThrottleExperiment
	}{
		{"(a) VCM-only @24,534", dtm.Figure7a()},
		{"(b) VCM+RPM 37,001->22,001", dtm.Figure7b()},
	} {
		sweep, err := c.e.Sweep([]time.Duration{
			500 * time.Millisecond, 2 * time.Second, 8 * time.Second,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %s ratios:", c.name)
		for _, p := range sweep {
			fmt.Fprintf(w, " %v:%.2f", p.TCool, p.Ratio)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "  paper shape: ratio falls with t_cool; sustaining >50% utilisation needs fine-grained throttling")
	return nil
}

func expAblations(w io.Writer) error {
	l, err := capacity.New(capacity.Config{
		Geometry: thermal.ReferenceDrive,
		BPI:      533000, TPI: 64000, Zones: 30,
	})
	if err != nil {
		return err
	}
	b := l.Breakdown()
	fmt.Fprintf(w, "  capacity overheads: ZBR %.1f%%, servo %.2f%%, ECC %.1f%% of raw\n",
		b.ZBRLoss*100, b.ServoLoss*100, b.ECCLoss*100)

	m, err := thermal.New(thermal.ReferenceDrive)
	if err != nil {
		return err
	}
	fixed := m.SteadyState(thermal.WorstCase(143470)).Air
	m.TemperatureDependentAir = true
	dep := m.SteadyState(thermal.WorstCase(143470)).Air
	fmt.Fprintf(w, "  air-property ablation at 143,470 RPM: fixed %.0f C vs film %.0f C\n",
		float64(fixed), float64(dep))
	return nil
}

func expPower(w io.Writer) error {
	pm, err := power.New(thermal.ReferenceDrive)
	if err != nil {
		return err
	}
	for _, rpm := range []units.RPM{15000, 20000, 25000} {
		fmt.Fprintf(w, "  @%v: idle %v, seeking %v (windage %v, motor loss %v)\n",
			rpm, pm.Idle(rpm).Total(), pm.Active(rpm).Total(),
			pm.Active(rpm).Windage, pm.Active(rpm).MotorLoss)
	}
	be := pm.BreakEvenIdle(15000, power.SpinDownPolicy{IdleTimeout: time.Minute})
	fmt.Fprintf(w, "  spin-down break-even idle time at 15k RPM: %v\n", be.Round(time.Second))
	return nil
}

func expReliability(w io.Writer) error {
	rel := reliability.Default()
	fmt.Fprintf(w, "  AFR %.2f%% at the envelope; x2 at +%g C (MTTF %.0fk h -> %.0fk h)\n",
		rel.AFRAt(thermal.Envelope)*100, float64(reliability.DoublingDelta),
		rel.MTTFAt(thermal.Envelope).Hours()/1000,
		rel.MTTFAt(thermal.Envelope+reliability.DoublingDelta).Hours()/1000)
	cool := reliability.NewExposure(rel)
	cool.Add(thermal.Envelope-5, time.Hour)
	hot := reliability.NewExposure(rel)
	hot.Add(thermal.Envelope, time.Hour)
	ext, err := cool.LifeExtension(hot)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  DTM for reliability: 5 C under the envelope extends drive life %.2fx\n", ext)
	return nil
}

func expArray(w io.Writer) error {
	bay := make([]array.Slot, 4)
	for i := range bay {
		bay[i] = array.Slot{Drive: thermal.ReferenceDrive, RPM: 15000, VCMDuty: 1}
	}
	c := array.Chassis{Inlet: thermal.DefaultAmbient, AirflowCFM: 20}
	states, err := array.Evaluate(c, bay)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  4 envelope-design drives at 20 CFM: hottest %.2f C (envelope %.2f), ok=%v\n",
		float64(array.HottestAir(states)), float64(thermal.Envelope), array.AllWithinEnvelope(states))
	maxInlet, err := array.MaxInletForEnvelope(c, bay)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  warmest tolerable inlet for the bay: %.2f C (single drive: 28 C)\n", float64(maxInlet))
	return nil
}

func relAbs(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := (a - b) / b
	if d < 0 {
		return -d
	}
	return d
}
