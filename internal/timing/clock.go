// Package timing is the static timing verifier of the toolkit.
//
// §4.3: "Timing verification is used to identify all critical and race
// paths. Critical paths (slow paths) will limit the clock frequency of
// the chip while race paths (fast paths) will prevent the chip from
// working at any frequency." The verifier computes bounded (min/max)
// arrival times over a timing graph deduced from recognized transistor
// groups, generates setup/hold constraints automatically at recognized
// state elements, and reports both slack-ordered critical paths and hold
// (race) violations. All deduction "must be accurate but err on the side
// of being pessimistic in order to insure no violations are missed."
package timing

import (
	"fmt"
	"sort"
	"strings"
)

// Phase describes one clock phase's transparent window within the cycle:
// the latch it controls is open (transparent) from OpenPS to ClosePS.
type Phase struct {
	OpenPS  float64
	ClosePS float64
}

// ClockSpec is the clocking methodology description (Figure 4): a cycle
// period and the phase windows of each named clock net.
type ClockSpec struct {
	// PeriodPS is the clock period in picoseconds.
	PeriodPS float64
	// Phases maps clock net base names (e.g. "phi1") to their windows.
	Phases map[string]Phase
}

// TwoPhase returns the classic two-phase non-overlapping clock used by
// the ALPHA-style designs: phi1 transparent in the first half-cycle,
// phi2 in the second, separated by a non-overlap gap.
func TwoPhase(periodPS float64) ClockSpec {
	gap := periodPS * 0.05
	return ClockSpec{
		PeriodPS: periodPS,
		Phases: map[string]Phase{
			"phi1": {OpenPS: 0, ClosePS: periodPS/2 - gap},
			"phi2": {OpenPS: periodPS / 2, ClosePS: periodPS - gap},
		},
	}
}

// SinglePhase returns a one-clock spec: transparent for the high half.
func SinglePhase(periodPS float64) ClockSpec {
	return ClockSpec{
		PeriodPS: periodPS,
		Phases: map[string]Phase{
			"clk": {OpenPS: 0, ClosePS: periodPS / 2},
		},
	}
}

// PhaseOf resolves a clock net name to its phase. Hierarchical prefixes
// are stripped; a trailing match on the registered phase names is
// accepted ("core/phi1_buf3" resolves to "phi1"). Unknown clocks get the
// full-period window — the pessimistic default: transparent the whole
// cycle constrains setup at period end and hold at cycle start.
func (c ClockSpec) PhaseOf(clockNet string) (Phase, bool) {
	base := clockNet
	if i := strings.LastIndex(base, "/"); i >= 0 {
		base = base[i+1:]
	}
	if p, ok := c.Phases[base]; ok {
		return p, true
	}
	for name, p := range c.Phases {
		if strings.HasPrefix(base, name) {
			return p, true
		}
	}
	return Phase{OpenPS: 0, ClosePS: c.PeriodPS}, false
}

// Validate checks the spec.
func (c ClockSpec) Validate() error {
	if c.PeriodPS <= 0 {
		return fmt.Errorf("timing: clock period must be positive, got %g", c.PeriodPS)
	}
	for name, p := range c.Phases {
		if p.OpenPS < 0 || p.ClosePS > c.PeriodPS || p.OpenPS >= p.ClosePS {
			return fmt.Errorf("timing: phase %s window [%g, %g] invalid for period %g",
				name, p.OpenPS, p.ClosePS, c.PeriodPS)
		}
	}
	return nil
}

// PhaseNames returns the registered phase names, sorted.
func (c ClockSpec) PhaseNames() []string {
	out := make([]string, 0, len(c.Phases))
	for n := range c.Phases {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
