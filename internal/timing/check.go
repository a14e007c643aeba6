package timing

import (
	"math"
	"sort"

	"repro/internal/netlist"
	"repro/internal/process"
	"repro/internal/recognize"
)

// constraintFor deduces setup and hold times for a state endpoint from
// its recognized structure (§4.3: "algorithms are needed, which ...
// will automatically identify the constraint and calculate the correct
// constraint time (setup time and hold time) for any full custom
// circuit. The constraint generation algorithms must be accurate but
// error on the side of being pessimistic.")
//
// Setup is dominated by the time to write the storage node through its
// clocked pass structure: 0.69·R_pass·C_store, inflated by a safety
// factor. Hold covers clock/data overlap at the pass gate: a fraction of
// an FO4 plus a fixed margin. When no pass structure is recognizable the
// fallbacks are expressed in FO4s so they track the process.
func (a *analyzer) constraintFor(id netlist.NodeID) (setupPS, holdPS float64) {
	const (
		setupSafety  = 1.5
		holdFraction = 0.4
		holdMarginPS = 5.0
	)
	p := a.opt.Proc
	fo4 := p.FO4ps(process.Typical)
	setupPS = 2 * fo4 // pessimistic fallback
	holdPS = holdFraction*fo4 + holdMarginPS

	// Find the latch owning this state node and its clocked pass
	// devices feeding the loop.
	var latch *recognize.Latch
	for i := range a.rec.Latches {
		for _, sn := range a.rec.Latches[i].StateNodes {
			if sn == id {
				latch = &a.rec.Latches[i]
			}
		}
	}
	if latch == nil {
		return setupPS, holdPS
	}
	cStore := a.loadFF[id]
	var rPass float64
	for _, gi := range latch.Groups {
		for _, d := range a.rec.Groups[gi].Devices {
			if !a.rec.IsClock(d.Gate) {
				continue
			}
			r := p.Reff(d.Type, d.Vt, d.W, d.Leff(), process.Slow)
			if r > rPass {
				rPass = r
			}
		}
	}
	// Pass devices may sit outside the loop groups (a tgate feeding the
	// keeper): look at devices channel-connected to the state node.
	for _, d := range a.adj.Channel(id) {
		if !a.rec.IsClock(d.Gate) {
			continue
		}
		r := p.Reff(d.Type, d.Vt, d.W, d.Leff(), process.Slow)
		if r > rPass {
			rPass = r
		}
	}
	if rPass > 0 && cStore > 0 {
		if s := 0.69 * rPass * cStore * 1e-3 * setupSafety; s > 0 {
			setupPS = s
		}
	}
	return setupPS, holdPS
}

// launchPhase returns the transparent window of the clock launching the
// path starting at the given node, and whether the launch is clocked.
func (a *analyzer) launchPhase(id netlist.NodeID) (Phase, bool) {
	if a.rec.IsState(id) || a.rec.IsDynamic(id) {
		ph, _ := a.opt.Clock.PhaseOf(a.stateClock(id))
		return ph, true
	}
	return Phase{}, false
}

// overlaps reports whether two transparent windows overlap in time.
func overlaps(x, y Phase) bool {
	return x.OpenPS < y.ClosePS && y.OpenPS < x.ClosePS
}

// check generates endpoint constraints, builds paths and slack-sorts the
// report.
func (a *analyzer) check(rep *Report) {
	spec := a.opt.Clock
	endpoint := func(id netlist.NodeID, arrival Bounds, predMaxStart, predMinStart []netlist.NodeID, isStateEP bool) {
		p := Path{Endpoint: id, Arrival: arrival}
		p.NodesMax = a.tracePath(id, predMaxStart, a.predMax)
		p.NodesMin = a.tracePath(id, predMinStart, a.predMin)

		if isStateEP {
			clockNet := a.stateClock(id)
			capPh, _ := spec.PhaseOf(clockNet)
			p.CaptureClock = clockNet
			p.SetupPS, p.HoldPS = a.constraintFor(id)

			// Setup: capture at the first close edge at or after the
			// path's launch instant (wrap to the next cycle when the
			// data launches after this cycle's close edge).
			launchT := 0.0
			if len(p.NodesMax) > 0 {
				if lb, ok := a.launchBounds(p.NodesMax[0]); ok {
					launchT = lb.Min
				}
			}
			closeEdge := capPh.ClosePS
			for closeEdge < launchT {
				closeEdge += spec.PeriodPS
			}
			// An early capture edge (negative skew) steals setup time.
			p.RequiredMax = closeEdge - p.SetupPS - a.opt.ClockSkewPS

			// Hold (race): only same-window or overlapping-window
			// launch/capture pairs can race through a transparent
			// latch; non-overlapping phases are race-immune by
			// construction (Figure 4's methodology). A racing path must
			// arrive after the capture latch has closed.
			// Dynamic (domino) nodes are exempt from flow-through race
			// checks in both roles: domino cascades same-phase by
			// design, relying on monotonicity rather than phase
			// separation (the monotonicity obligation is the checks
			// package's concern, not a hold time).
			raceable := false
			if len(p.NodesMin) > 0 && !a.rec.IsDynamic(id) {
				launch := p.NodesMin[0]
				if lp, clocked := a.launchPhase(launch); clocked && overlaps(lp, capPh) &&
					!a.sameLatch(launch, id) && !a.rec.IsDynamic(launch) {
					raceable = true
				}
			}
			if raceable {
				// A late capture edge (positive skew) extends the
				// window the racing data must outlast.
				p.RequiredMin = capPh.ClosePS + p.HoldPS + a.opt.ClockSkewPS
			} else {
				p.RequiredMin = math.Inf(-1)
			}
		} else {
			// Primary output: must settle within the cycle; no race.
			p.RequiredMax = spec.PeriodPS
			p.RequiredMin = math.Inf(-1)
		}
		p.SetupSlack = p.RequiredMax - p.Arrival.Max
		if math.IsInf(p.RequiredMin, -1) {
			p.HoldSlack = math.Inf(1)
		} else {
			p.HoldSlack = p.Arrival.Min - p.RequiredMin
		}
		rep.Paths = append(rep.Paths, p)
	}

	// State endpoints with captured data.
	capIDs := a.capIDs
	sort.Slice(capIDs, func(i, j int) bool { return capIDs[i] < capIDs[j] })
	for _, id := range capIDs {
		endpoint(id, a.capture[id], a.capPredMax, a.capPredMin, true)
	}
	// Driven output ports.
	for _, pid := range a.c.Ports {
		if _, driven := a.rec.DriverOf[pid]; !driven {
			continue
		}
		if a.isState[pid] || a.rec.IsClock(pid) {
			continue
		}
		if b, ok := rep.Arrival[pid]; ok {
			endpoint(pid, b, a.predMax, a.predMin, false)
		}
	}

	sort.Slice(rep.Paths, func(i, j int) bool {
		if rep.Paths[i].SetupSlack != rep.Paths[j].SetupSlack {
			return rep.Paths[i].SetupSlack < rep.Paths[j].SetupSlack
		}
		return rep.Paths[i].Endpoint < rep.Paths[j].Endpoint
	})
	for _, p := range rep.Paths {
		if p.HoldSlack < 0 {
			rep.Races = append(rep.Races, p)
		}
	}
	sort.Slice(rep.Races, func(i, j int) bool { return rep.Races[i].HoldSlack < rep.Races[j].HoldSlack })

	// Minimum period estimate: shift the current period by the worst
	// setup slack (endpoints' required times move with the period).
	rep.MinPeriodPS = spec.PeriodPS
	if cp := rep.CriticalPath(); cp != nil {
		rep.MinPeriodPS = spec.PeriodPS - cp.SetupSlack
		if rep.MinPeriodPS < 0 {
			rep.MinPeriodPS = 0
		}
	}
}

// sameLatch reports whether two nodes are state nodes of one recognized
// feedback loop: the keeper path inside a latch is its storage mechanism,
// not a race.
func (a *analyzer) sameLatch(x, y netlist.NodeID) bool {
	for i := range a.rec.Latches {
		hasX, hasY := false, false
		for _, sn := range a.rec.Latches[i].StateNodes {
			if sn == x {
				hasX = true
			}
			if sn == y {
				hasY = true
			}
		}
		if hasX && hasY {
			return true
		}
	}
	return false
}

// tracePath reconstructs a path by walking predecessor links from the
// endpoint back to a launch point (InvalidNode terminates). first
// selects the endpoint's own predecessor table (capture-side); rest is
// the propagation table.
func (a *analyzer) tracePath(end netlist.NodeID, first, rest []netlist.NodeID) []netlist.NodeID {
	var rev []netlist.NodeID
	rev = append(rev, end)
	for cur := first[end]; cur != netlist.InvalidNode; cur = rest[cur] {
		rev = append(rev, cur)
		if len(rev) > len(a.c.Nodes)+2 {
			break // cycle guard
		}
	}
	// Reverse.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
