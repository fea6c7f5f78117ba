package thermal

import (
	"math"
	"testing"
	"time"

	"repro/internal/units"
)

// linearNetwork is the four-node network with fixed-property air written as
// C·dT/dt = b − A·T (node order air, spindle, base, actuator). It is built
// from the conductances, the capacitances and the exported source laws, not
// from the solver, so it is an independent oracle for both the steady solve
// and the explicit integrator.
type linearNetwork struct {
	a [4][4]float64 // heat-balance matrix, W/K (symmetric)
	b [4]float64    // source power plus the ambient drive, W
	c [4]float64    // node capacitances, J/K
}

func newLinearNetwork(m *Model, load Load) linearNetwork {
	g := m.conductancesAt(load.RPM, m.airPropsAt)
	d := m.drive.PlatterDiameter
	vcm := load.VCMDuty * float64(VCMPower(d))
	var n linearNetwork
	n.a = [4][4]float64{
		{g.spindleAir + g.actuatorAir + g.airBase, -g.spindleAir, -g.airBase, -g.actuatorAir},
		{-g.spindleAir, g.spindleAir + g.spindleBase, -g.spindleBase, 0},
		{-g.airBase, -g.spindleBase, g.airBase + g.spindleBase + g.actuatorBase + g.baseAmbient, -g.actuatorBase},
		{-g.actuatorAir, 0, -g.actuatorBase, g.actuatorAir + g.actuatorBase},
	}
	n.b = [4]float64{
		float64(ViscousDissipation(load.RPM, d, m.drive.Platters)) + VCMAirFraction*vcm,
		float64(BearingLoss(load.RPM, d)),
		g.baseAmbient * float64(load.Ambient),
		(1 - VCMAirFraction) * vcm,
	}
	n.c = [4]float64{m.cAir, m.cSpindle, m.cBase, m.cActuator}
	return n
}

// solution returns T(t) = T_ss + e^{−C⁻¹A·t}(T0 − T_ss). C⁻¹A is similar to
// the symmetric S = C^{−1/2}·A·C^{−1/2}, so with S = VΛVᵀ the propagator is
// C^{−1/2}·V·e^{−Λt}·Vᵀ·C^{1/2} and the steady state is
// C^{−1/2}·V·Λ⁻¹·Vᵀ·C^{−1/2}·b.
func (n linearNetwork) solution(t0 State, t float64) State {
	var rc [4]float64 // C^{1/2}
	var s [4][4]float64
	for i := range rc {
		rc[i] = math.Sqrt(n.c[i])
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			s[i][j] = n.a[i][j] / (rc[i] * rc[j])
		}
	}
	lam, v := jacobiEigen(s)
	// apply returns C^{-1/2}·V·diag(f)·Vᵀ·x.
	apply := func(x [4]float64, f [4]float64) [4]float64 {
		var y, out [4]float64
		for k := 0; k < 4; k++ {
			for i := 0; i < 4; i++ {
				y[k] += v[i][k] * x[i]
			}
			y[k] *= f[k]
		}
		for i := 0; i < 4; i++ {
			for k := 0; k < 4; k++ {
				out[i] += v[i][k] * y[k]
			}
			out[i] /= rc[i]
		}
		return out
	}
	var inv, decay, bs [4]float64
	for k := range lam {
		inv[k] = 1 / lam[k]
		decay[k] = math.Exp(-lam[k] * t)
	}
	for i := range bs {
		bs[i] = n.b[i] / rc[i]
	}
	ss := apply(bs, inv)
	x0 := [4]float64{float64(t0.Air), float64(t0.Spindle), float64(t0.Base), float64(t0.Actuator)}
	var dev [4]float64 // C^{1/2}·(T0 − T_ss)
	for i := range dev {
		dev[i] = rc[i] * (x0[i] - ss[i])
	}
	tr := apply(dev, decay)
	return State{
		Air:      units.Celsius(ss[0] + tr[0]),
		Spindle:  units.Celsius(ss[1] + tr[1]),
		Base:     units.Celsius(ss[2] + tr[2]),
		Actuator: units.Celsius(ss[3] + tr[3]),
	}
}

// jacobiEigen diagonalizes a symmetric 4x4 matrix by cyclic Jacobi
// rotations: s = V·diag(λ)·Vᵀ.
func jacobiEigen(s [4][4]float64) (lam [4]float64, v [4][4]float64) {
	for i := range v {
		v[i][i] = 1
	}
	for sweep := 0; sweep < 50; sweep++ {
		off, diag := 0.0, 0.0
		for p := 0; p < 4; p++ {
			diag += s[p][p] * s[p][p]
			for q := p + 1; q < 4; q++ {
				off += s[p][q] * s[p][q]
			}
		}
		if off <= 1e-34*diag {
			break
		}
		for p := 0; p < 3; p++ {
			for q := p + 1; q < 4; q++ {
				if s[p][q] == 0 {
					continue
				}
				theta := (s[q][q] - s[p][p]) / (2 * s[p][q])
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				sn := t * c
				for k := 0; k < 4; k++ {
					skp, skq := s[k][p], s[k][q]
					s[k][p], s[k][q] = c*skp-sn*skq, sn*skp+c*skq
				}
				for k := 0; k < 4; k++ {
					spk, sqk := s[p][k], s[q][k]
					s[p][k], s[q][k] = c*spk-sn*sqk, sn*spk+c*sqk
				}
				for k := 0; k < 4; k++ {
					vkp, vkq := v[k][p], v[k][q]
					v[k][p], v[k][q] = c*vkp-sn*vkq, sn*vkp+c*vkq
				}
			}
		}
	}
	for i := range lam {
		lam[i] = s[i][i]
	}
	return lam, v
}

func nodeErrors(got, want State) [4]float64 {
	return [4]float64{
		math.Abs(float64(got.Air - want.Air)),
		math.Abs(float64(got.Spindle - want.Spindle)),
		math.Abs(float64(got.Base - want.Base)),
		math.Abs(float64(got.Actuator - want.Actuator)),
	}
}

// TestTransientMatchesClosedForm checks the explicit integrator, at the
// paper's 600 steps per minute, against the exact solution of the linear
// network from a drive soaked at ambient. Each bound is the per-node error
// the integrator was measured at, rounded up to two significant figures
// (°C). The first-order explicit error peaks while the network is still
// warming (about 5 minutes in) and decays as it settles.
func TestTransientMatchesClosedForm(t *testing.T) {
	m := refModel(t)
	cases := []struct {
		rpm    units.RPM
		minute int
		bound  [4]float64 // air, spindle, base, actuator
	}{
		{15020, 1, [4]float64{1.4e-4, 2.2e-4, 1.7e-5, 1.6e-4}},
		{15020, 5, [4]float64{3.8e-4, 5.2e-4, 3.4e-5, 5.5e-4}},
		{15020, 48, [4]float64{4.4e-5, 5.4e-5, 1.4e-5, 6.6e-5}},
		{24534, 1, [4]float64{2.7e-4, 5.3e-4, 3.2e-5, 1.9e-4}},
		{24534, 5, [4]float64{6.0e-4, 8.7e-4, 9.5e-5, 8.0e-4}},
		{24534, 48, [4]float64{2.9e-5, 3.5e-5, 1.2e-5, 4.2e-5}},
	}
	start := Uniform(DefaultAmbient)
	trs := map[units.RPM]*Transient{}
	for _, c := range cases {
		load := WorstCase(c.rpm)
		tr := trs[c.rpm]
		if tr == nil {
			tr = m.NewTransient(start)
			trs[c.rpm] = tr
		}
		at := time.Duration(c.minute) * time.Minute
		tr.Advance(load, at-tr.Now())
		want := newLinearNetwork(m, load).solution(start, at.Seconds())
		errs := nodeErrors(tr.State(), want)
		t.Logf("%v, %2d min: err air %.4g spindle %.4g base %.4g actuator %.4g °C",
			c.rpm, c.minute, errs[0], errs[1], errs[2], errs[3])
		for i, e := range errs {
			if !(e <= c.bound[i]) {
				t.Errorf("%v at %d min: node %d error %.3g °C exceeds %.3g (integrated %v, exact %v)",
					c.rpm, c.minute, i, e, c.bound[i], tr.State(), want)
			}
		}
	}
}

// TestClosedFormMatchesSteadyState ties the oracle to the model: long after
// the start it must sit on SteadyState, so a wrong oracle cannot pass the
// integrator check above by accident.
func TestClosedFormMatchesSteadyState(t *testing.T) {
	m := refModel(t)
	for _, rpm := range []units.RPM{15020, 24534} {
		load := WorstCase(rpm)
		got := newLinearNetwork(m, load).solution(Uniform(DefaultAmbient), 1e6)
		for i, e := range nodeErrors(got, m.SteadyState(load)) {
			if e > 1e-9 {
				t.Errorf("%v: node %d oracle steady state off by %.3g °C", rpm, i, e)
			}
		}
	}
}
