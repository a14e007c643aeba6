package main

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/process"
	"repro/internal/timing"
)

// verifyOptions is fcv verify's default configuration: the cmos075
// process at its nominal two-phase clock.
func verifyOptions() core.Options {
	proc := process.CMOS075()
	return core.Options{Proc: proc, Clock: timing.TwoPhase(1e6 / proc.ClockFreqMHz)}
}

// family generates one circuit style at a size.
type family struct {
	name  string
	build func(n int) *netlist.Circuit
}

var (
	invChain = family{"invchain", designs.InverterChain}
	adder    = family{"adder", designs.DominoAdder}
	pipe     = family{"pipe", func(k int) *netlist.Circuit { return designs.LatchPipeline(k, false) }}
	racyPipe = family{"racypipe", func(k int) *netlist.Circuit { return designs.LatchPipeline(k, true) }}
	passMux  = family{"passmux", designs.PassMux}
	dcvsl    = family{"dcvsl", designs.DCVSLComparator}
	// The array families take n as words; their bit widths are fixed
	// because verification cost jumps steeply with array shape.
	sram4 = family{"sram_w4b", func(w int) *netlist.Circuit { return designs.SRAMArray(w, 4, 0.09) }}
	sram8 = family{"sram_w8b", func(w int) *netlist.Circuit { return designs.SRAMArray(w, 8, 0.09) }}
	regf4 = family{"regfile_w4b", func(w int) *netlist.Circuit { return designs.RegisterFile(w, 4) }}
	regf8 = family{"regfile_w8b", func(w int) *netlist.Circuit { return designs.RegisterFile(w, 8) }}
)

// slot is one corpus member: a family and the size range [lo, hi] the
// seed draws from. Narrow ranges keep a corpus's total work nearly the
// same across seeds while its designs differ.
type slot struct {
	f      family
	lo, hi int
}

// generated is one seeded design.
type generated struct {
	name string // unique within the corpus; also the .subckt name
	size int
	fam  string
	c    *netlist.Circuit
}

// generate draws every slot's size from rng and perturbs one device
// width per design by under ±0.5%, so two seeds never share a
// fingerprint even where they draw the same size. Names are unique per
// corpus: label, slot index, family and size.
func generate(label string, slots []slot, rng *obs.RNG) []generated {
	out := make([]generated, len(slots))
	for i, s := range slots {
		n := s.lo + rng.Intn(s.hi-s.lo+1)
		c := s.f.build(n)
		c.Name = fmt.Sprintf("%s%02d_%s%d", label, i, s.f.name, n)
		tweakWidth(c, rng)
		out[i] = generated{name: c.Name, size: n, fam: s.f.name, c: c}
	}
	return out
}

// tweakWidth scales one seeded device's width by a seeded factor within
// ±0.5%: a new fingerprint at unchanged verification cost.
func tweakWidth(c *netlist.Circuit, rng *obs.RNG) {
	d := c.Devices[rng.Intn(len(c.Devices))]
	d.W *= 1 + (rng.Float64()-0.5)/100
}

// renderCell writes c as a one-cell SPICE deck: a .subckt carrying the
// cell's ports and an empty top level, so parsing and flattening the
// deck by the cell's name gives back the circuit with its interface.
func renderCell(c *netlist.Circuit) ([]byte, error) {
	lib := netlist.NewLibrary()
	lib.Add(c)
	var buf bytes.Buffer
	if err := netlist.Write(&buf, lib, netlist.New("deck")); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// verdictRef is the outcome an output check compares against.
type verdictRef struct {
	verdict string
	inspect int
	ids     []string // sorted finding IDs
}

// reference verifies c directly with core.Verify — no SPICE round
// trip, no fleet, no cache — for the output checks.
func reference(c *netlist.Circuit) (verdictRef, error) {
	rep, err := core.Verify(c, verifyOptions())
	if err != nil {
		return verdictRef{}, err
	}
	return verdictRef{verdict: rep.Verdict.String(), inspect: rep.InspectLoad, ids: findingIDs(rep.Findings())}, nil
}

// findingIDs returns the sorted finding IDs.
func findingIDs(fs []obs.Finding) []string {
	ids := make([]string, len(fs))
	for i, f := range fs {
		ids[i] = f.ID
	}
	sort.Strings(ids)
	return ids
}
