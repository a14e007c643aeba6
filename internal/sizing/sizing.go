// Package sizing implements automatic transistor path sizing via the
// method of logical effort.
//
// §2.2 of the paper: "Transistors are sized either by the designer or by
// using automatic path sizing techniques." Logical effort is the
// standard such technique: it expresses every gate's drive cost as a
// unitless effort, finds the total path effort F = G·B·H, and sizes each
// stage for equal stage effort F^(1/N), which minimizes path delay. The
// engine also answers the dual question — how many stages a path should
// have (N̂ ≈ log₄ F).
package sizing

import (
	"fmt"
	"math"

	"repro/internal/process"
)

// Stage is one gate of a path, in logical-effort terms.
type Stage struct {
	// Name labels the stage for reports.
	Name string
	// G is the stage's logical effort (inverter = 1, NAND2 = 4/3,
	// NOR2 = 5/3, ...).
	G float64
	// P is the stage's parasitic delay in units of the inverter
	// parasitic (inverter = 1, NAND2 = 2, ...).
	P float64
	// Branch is the branching effort: total load on the stage's output
	// divided by the load on the path of interest (≥1).
	Branch float64
}

// Inverter returns an inverter stage.
func Inverter(name string) Stage { return Stage{Name: name, G: 1, P: 1, Branch: 1} }

// Result is a sized path.
type Result struct {
	// Stages echoes the input stages.
	Stages []Stage
	// CinFF is the input capacitance assigned to each stage in fF;
	// CinFF[0] equals the given path input cap.
	CinFF []float64
	// StageEffort is the equalized effort per stage (ρ = F^(1/N)).
	StageEffort float64
	// PathEffort is F = G·B·H.
	PathEffort float64
	// DelayUnits is the minimized path delay in τ units (stage efforts
	// plus parasitics).
	DelayUnits float64
	// DelayPS is DelayUnits scaled by the process τ (FO4/5).
	DelayPS float64
}

// SizePath sizes a path of stages driving loadFF from an input pinned at
// cinFF, minimizing delay by equalizing stage effort. Proc may be nil
// (DelayPS is then 0).
func SizePath(stages []Stage, cinFF, loadFF float64, proc *process.Process) (*Result, error) {
	n := len(stages)
	if n == 0 {
		return nil, fmt.Errorf("sizing: empty path")
	}
	if cinFF <= 0 || loadFF <= 0 {
		return nil, fmt.Errorf("sizing: input (%g) and load (%g) caps must be positive", cinFF, loadFF)
	}
	g, b := 1.0, 1.0
	for _, s := range stages {
		if s.G <= 0 || s.Branch < 1 || s.P < 0 {
			return nil, fmt.Errorf("sizing: stage %q has invalid parameters %+v", s.Name, s)
		}
		g *= s.G
		b *= s.Branch
	}
	h := loadFF / cinFF
	f := g * b * h
	rho := math.Pow(f, 1/float64(n))

	res := &Result{
		Stages:      append([]Stage(nil), stages...),
		CinFF:       make([]float64, n),
		StageEffort: rho,
		PathEffort:  f,
	}
	// Work backward: Cin_i = g_i · b_i · Cout_i / ρ.
	cout := loadFF
	for i := n - 1; i >= 0; i-- {
		res.CinFF[i] = stages[i].G * stages[i].Branch * cout / rho
		cout = res.CinFF[i]
	}
	// Delay: N·ρ + ΣP.
	res.DelayUnits = float64(n) * rho
	for _, s := range stages {
		res.DelayUnits += s.P
	}
	if proc != nil {
		res.DelayPS = res.DelayUnits * tauPS(proc)
	}
	return res, nil
}

// tauPS estimates the process's unit delay τ: an FO4 is ≈5τ (4 effort +
// 1 parasitic).
func tauPS(p *process.Process) float64 {
	return p.FO4ps(process.Typical) / 5
}

// OptimalStageCount returns N̂, the delay-optimal number of stages for a
// path effort F: the nearest integer to log₄ F, at least 1.
func OptimalStageCount(pathEffort float64) int {
	if pathEffort <= 1 {
		return 1
	}
	n := int(math.Round(math.Log(pathEffort) / math.Log(4)))
	if n < 1 {
		n = 1
	}
	return n
}

// BufferChain designs a minimum-delay inverter chain from cinFF to
// loadFF, choosing the stage count automatically. If parity is
// non-negative, the chain length is forced to that parity (0 even,
// 1 odd) so the chain's logic sense can be controlled.
func BufferChain(cinFF, loadFF float64, parity int, proc *process.Process) (*Result, error) {
	if cinFF <= 0 || loadFF <= 0 {
		return nil, fmt.Errorf("sizing: caps must be positive")
	}
	f := loadFF / cinFF
	n := OptimalStageCount(f)
	if parity >= 0 && n%2 != parity {
		n++
	}
	stages := make([]Stage, n)
	for i := range stages {
		stages[i] = Inverter(fmt.Sprintf("buf%d", i))
	}
	return SizePath(stages, cinFF, loadFF, proc)
}

// WidthsFromCin converts per-stage input capacitance to NMOS/PMOS widths
// at minimum length, splitting each stage's input cap in a 1:2 N:P ratio
// (the usual mobility compensation).
func WidthsFromCin(cinFF []float64, proc *process.Process) (wn, wp []float64) {
	wn = make([]float64, len(cinFF))
	wp = make([]float64, len(cinFF))
	unit := proc.CgateFF(1, proc.Lmin) // fF per µm of width at Lmin
	for i, c := range cinFF {
		total := c / unit // total µm of gate width
		wn[i] = total / 3
		wp[i] = 2 * total / 3
	}
	return wn, wp
}
