package planner

import "github.com/robotack/robotack/internal/geom"

// PID is the actuation smoother of the paper's Fig. 1: "commands are
// smoothed out using a PID controller to generate final actuation
// values ... The PID controller ensures that the AV does not make any
// sudden changes in A_t." It tracks the planner's desired acceleration
// with a jerk limit; emergency braking bypasses it (safety overrides
// comfort).
type PID struct {
	// Kp, Ki, Kd are the controller gains on the acceleration error.
	Kp, Ki, Kd float64
	// JerkLimit bounds the output slew rate in m/s^3.
	JerkLimit float64
	// IntegralLimit bounds the integral term (anti-windup).
	IntegralLimit float64

	integral float64
	prevErr  float64
	output   float64
	primed   bool
}

// NewPID returns the controller tuning used by the reproduction's ADS.
func NewPID() *PID {
	return &PID{Kp: 0.55, Ki: 0.35, Kd: 0.02, JerkLimit: 22, IntegralLimit: 3}
}

// Update advances the controller one step toward the desired
// acceleration and returns the smoothed actuation value.
func (p *PID) Update(desired float64, dt float64) float64 {
	err := desired - p.output
	p.integral = geom.Clamp(p.integral+err*dt, -p.IntegralLimit, p.IntegralLimit)
	deriv := 0.0
	if p.primed && dt > 0 {
		deriv = (err - p.prevErr) / dt
	}
	p.prevErr = err
	p.primed = true

	delta := p.Kp*err + p.Ki*p.integral*dt + p.Kd*deriv*dt
	maxStep := p.JerkLimit * dt
	p.output += geom.Clamp(delta, -maxStep, maxStep)
	return p.output
}

// Override forces the output (emergency braking path) and resets the
// controller state so the next Update resumes smoothly from there.
func (p *PID) Override(value float64) float64 {
	p.output = value
	p.integral = 0
	p.prevErr = 0
	p.primed = false
	return p.output
}

// Reset clears all controller state.
func (p *PID) Reset() {
	p.integral = 0
	p.prevErr = 0
	p.output = 0
	p.primed = false
}
