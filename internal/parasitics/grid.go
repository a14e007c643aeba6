package parasitics

import (
	"fmt"
	"math"
)

// DistributedGate models Figure 5 of the paper: "a large inverter is
// commonly implemented with many smaller transistor fingers distributed
// across a large area along the output node. This results in the output
// of [the] inverter tied into multiple positions along the RC grid...
// additionally complicated by the fact that the inputs of the individual
// inverter transistors are also themselves outputs of another RC grid."
//
// Two delay models are provided. Lumped is the "Simple" picture: one
// ideal port, all capacitance lumped behind one switch resistance.
// Distributed is the "Reality" picture: F fingers tapping the output RC
// line at intervals, each switching only when the input RC line has
// reached *its* tap. The gap between the two is the modelling error the
// paper warns about.
type DistributedGate struct {
	// Fingers is the number of parallel transistor fingers (≥1).
	Fingers int
	// RdrvTotal is the switching resistance in Ω of all fingers in
	// parallel (the lumped driver strength).
	RdrvTotal float64
	// InRes/InCap are total input-wire resistance (Ω) and capacitance
	// (fF) across the finger span.
	InRes, InCap float64
	// RinDrv is the resistance (Ω) of the previous stage driving the
	// input wire.
	RinDrv float64
	// CgPerFinger is the gate capacitance (fF) of one finger.
	CgPerFinger float64
	// OutRes/OutCap are total output-wire resistance (Ω) and
	// capacitance (fF) across the finger span.
	OutRes, OutCap float64
	// CLoad is the receiving load (fF) at the far end of the output.
	CLoad float64
	// Vdd is the supply (V); delays measure 50% crossings.
	Vdd float64
}

// Validate checks parameters.
func (g *DistributedGate) Validate() error {
	switch {
	case g.Fingers < 1:
		return fmt.Errorf("parasitics: gate needs ≥1 finger")
	case g.RdrvTotal <= 0 || g.RinDrv <= 0:
		return fmt.Errorf("parasitics: driver resistances must be positive")
	case g.Vdd <= 0:
		return fmt.Errorf("parasitics: Vdd must be positive")
	case g.InRes < 0 || g.InCap < 0 || g.OutRes < 0 || g.OutCap < 0 || g.CLoad < 0 || g.CgPerFinger < 0:
		return fmt.Errorf("parasitics: negative parasitics")
	}
	return nil
}

// LumpedDelayPS is the "Simple" model: the whole gate is one switch of
// RdrvTotal at the near end of the output line; the input wire's effect
// on finger turn-on is ignored entirely (single input port).
func (g *DistributedGate) LumpedDelayPS() (float64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	line, err := Line(maxInt(g.Fingers, 1), g.OutRes, g.OutCap)
	if err != nil {
		return 0, err
	}
	if err := line.AddCap("out", g.CLoad); err != nil {
		return 0, err
	}
	return line.ElmorePS(g.RdrvTotal, "out")
}

// DistributedDelayPS is the "Reality" model, solved by transient
// analysis: finger i taps the output line at position i and switches
// with a delay equal to the input line's charging time at its tap.
// Returned is the 50% crossing at the far end ("out"), measured from the
// input source step.
func (g *DistributedGate) DistributedDelayPS() (float64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	f := g.Fingers

	// Stage 1: input grid arrival at each finger tap (Elmore of the
	// input line with gate loads attached).
	inLine, err := Line(f, g.InRes, g.InCap)
	if err != nil {
		return 0, err
	}
	taps := make([]string, f)
	for i := 1; i <= f; i++ {
		name := "out"
		if i < f {
			name = fmt.Sprintf("w%d", i)
		}
		taps[i-1] = name
		if err := inLine.AddCap(name, g.CgPerFinger); err != nil {
			return 0, err
		}
	}
	arrive := make([]float64, f)
	for i, tap := range taps {
		d, err := inLine.ElmorePS(g.RinDrv, tap)
		if err != nil {
			return 0, err
		}
		arrive[i] = d
	}

	// Stage 2: output grid transient with per-finger delayed switches.
	net := NewNetwork()
	segR := g.OutRes / float64(f)
	segC := g.OutCap / float64(f)
	prev := "drv0"
	net.AddCap(prev, segC/2)
	outTaps := []string{prev}
	for i := 1; i < f; i++ {
		name := fmt.Sprintf("o%d", i)
		if err := net.AddRes(prev, name, segR); err != nil {
			return 0, err
		}
		net.AddCap(name, segC)
		outTaps = append(outTaps, name)
		prev = name
	}
	if err := net.AddRes(prev, "out", segR); err != nil {
		return 0, err
	}
	net.AddCap("out", segC/2+g.CLoad)

	rFinger := g.RdrvTotal * float64(f)
	for i, tap := range outTaps {
		d := arrive[i]
		// Each finger pulls its tap toward vdd once its input arrives.
		if err := net.addDelayedStep(tap, rFinger, 0, g.Vdd, d); err != nil {
			return 0, err
		}
	}

	// Simulate long enough: several lumped time constants.
	tau := (g.RdrvTotal + g.OutRes) * (g.OutCap + g.CLoad) * 1e-3 // ps
	maxArr := 0.0
	for _, a := range arrive {
		if a > maxArr {
			maxArr = a
		}
	}
	dur := 10*tau + 2*maxArr + 10
	step := dur / 4000
	res, err := net.Transient(nil, dur, step)
	if err != nil {
		return 0, err
	}
	cross := res.CrossingPS("out", g.Vdd/2)
	if math.IsNaN(cross) {
		return 0, fmt.Errorf("parasitics: output never crossed 50%% in %.0f ps", dur)
	}
	return cross, nil
}

// ModelErrorPS returns (lumped, distributed, distributed-lumped): the
// Figure 5 headline number — how much delay the "Simple" single-port
// model misses.
func (g *DistributedGate) ModelErrorPS() (lumped, distributed, errPS float64, err error) {
	lumped, err = g.LumpedDelayPS()
	if err != nil {
		return 0, 0, 0, err
	}
	distributed, err = g.DistributedDelayPS()
	if err != nil {
		return 0, 0, 0, err
	}
	return lumped, distributed, distributed - lumped, nil
}

// addDelayedStep drives a node through a source resistance with a
// voltage step from v0 to v1 at delayPS.
func (n *Network) addDelayedStep(name string, ohm, v0, v1, delayPS float64) error {
	if ohm <= 0 {
		return fmt.Errorf("parasitics: source resistance must be positive")
	}
	n.srcs = append(n.srcs, source{n.node(name), ohm, func(t float64) float64 {
		if t >= delayPS {
			return v1
		}
		return v0
	}})
	return nil
}

// maxInt returns the larger int.
func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
