package timing

import (
	"fmt"
	"math"

	"repro/internal/netlist"
	"repro/internal/process"
	"repro/internal/recognize"
)

// Bounds is a [min, max] time pair in picoseconds.
type Bounds struct {
	Min, Max float64
}

// Arc is one timing edge of the deduced graph: a transition on From can
// cause a transition on To after a bounded delay.
type Arc struct {
	From, To netlist.NodeID
	// DelayPS bounds the arc delay: Min at the fast corner with minimum
	// coupling, Max at the slow corner with maximum coupling.
	DelayPS Bounds
	// Group is the recognized group index providing the arc (-1 for
	// extracted-resistor arcs).
	Group int
}

// Options configures an analysis run.
type Options struct {
	// Proc is the process model (required).
	Proc *process.Process
	// Clock is the clocking methodology (required: Validate must pass).
	Clock ClockSpec
	// CouplingPessimism ≥ 1 scales load capacitance up for max delays
	// and down for min delays, standing in for the min/max coupling
	// bounding of §4.3. 1.0 means no bounding (unsafe); the S6
	// experiment sweeps this.
	CouplingPessimism float64
	// InputArrival optionally overrides arrival bounds at input ports
	// (by node name). Unlisted inputs arrive at phase phi1 open (time 0)
	// exactly.
	InputArrival map[string]Bounds
	// ClockSkewPS is the clock-distribution uncertainty: every capture
	// edge may be up to this much early (tightening setup) or late
	// (tightening hold). §4.2's clock RC analysis bounds this number;
	// the timing verifier consumes it.
	ClockSkewPS float64
}

// Path is a timed path to one endpoint, with both setup and hold checks.
type Path struct {
	// Endpoint is the capture node (state node or output port).
	Endpoint netlist.NodeID
	// NodesMax is the max-arrival (critical) path, launch to endpoint.
	NodesMax []netlist.NodeID
	// NodesMin is the min-arrival (race) path.
	NodesMin []netlist.NodeID
	// Arrival bounds the data arrival at the endpoint.
	Arrival Bounds
	// RequiredMax is the latest allowed arrival (setup-constrained).
	RequiredMax float64
	// RequiredMin is the earliest allowed arrival (hold-constrained).
	RequiredMin float64
	// SetupSlack = RequiredMax - Arrival.Max (negative: critical
	// violation — limits frequency).
	SetupSlack float64
	// HoldSlack = Arrival.Min - RequiredMin (negative: race — broken at
	// any frequency).
	HoldSlack float64
	// SetupPS/HoldPS are the deduced constraint values applied.
	SetupPS, HoldPS float64
	// CaptureClock names the clock capturing this endpoint ("" for a
	// primary output).
	CaptureClock string
	// SetupID and HoldID are the stable finding identities for this
	// endpoint's setup and hold checks ("timing/setup@<16-hex>"), set
	// only where the check fails (negative slack): rename-invariant
	// because the hex half is the endpoint's structural signature
	// (netlist.Signatures). Diff tooling keys timing violations on
	// these, so a renamed endpoint is the same finding.
	SetupID, HoldID string
}

// Report is the result of a timing run.
type Report struct {
	// Circuit under analysis.
	Circuit *netlist.Circuit
	// Arcs is the deduced timing graph.
	Arcs []Arc
	// Arrival bounds per node (nodes with no arrival are absent).
	Arrival map[netlist.NodeID]Bounds
	// Paths holds one entry per endpoint, sorted by ascending setup
	// slack (most critical first).
	Paths []Path
	// Races are the endpoints with negative hold slack, worst first.
	Races []Path
	// MinPeriodPS is the smallest period at which no setup check fails
	// (races are period-independent and reported separately).
	MinPeriodPS float64
	// Levels is the number of levelization iterations used.
	Levels int
}

// CriticalPath returns the worst-setup-slack path, or nil.
func (r *Report) CriticalPath() *Path {
	if len(r.Paths) == 0 {
		return nil
	}
	return &r.Paths[0]
}

// PathNodeNames renders a path's max (critical) route as node names.
func (r *Report) PathNodeNames(p *Path) []string {
	out := make([]string, len(p.NodesMax))
	for i, id := range p.NodesMax {
		out[i] = r.Circuit.NodeName(id)
	}
	return out
}

// Analyze runs static timing over a recognized circuit. sigs is the
// signature table of rec.Circuit; it names the paths (see
// attachPathIDs).
func Analyze(rec *recognize.Result, sigs *netlist.Signatures, opt Options) (*Report, error) {
	if opt.Proc == nil {
		return nil, fmt.Errorf("timing: missing process model")
	}
	if err := opt.Clock.Validate(); err != nil {
		return nil, err
	}
	if opt.CouplingPessimism < 1 {
		if opt.CouplingPessimism != 0 {
			return nil, fmt.Errorf("timing: coupling pessimism %g must be ≥ 1", opt.CouplingPessimism)
		}
		opt.CouplingPessimism = 1.15
	}
	if opt.ClockSkewPS < 0 {
		return nil, fmt.Errorf("timing: negative clock skew %g", opt.ClockSkewPS)
	}
	a := &analyzer{
		rec:    rec,
		c:      rec.Circuit,
		opt:    opt,
		adj:    netlist.NewAdjacency(rec.Circuit),
		loadFF: netlist.NodeLoads(rec.Circuit, opt.Proc),
	}
	a.buildArcs()
	a.buildFanout()
	rep := &Report{Circuit: a.c, Arcs: a.arcs, Arrival: make(map[netlist.NodeID]Bounds)}
	a.propagate(rep)
	a.check(rep)
	attachPathIDs(rep, sigs)
	return rep, nil
}

// attachPathIDs names the failing checks: the setup ID of every path
// with negative setup slack and the hold ID of every race. Paths are
// already in their deterministic (slack-sorted) order, and every path
// counts towards the "#n" numbering of structurally symmetric
// endpoints, so a failing check's ID does not depend on which others
// fail. Races are copies of Paths entries and inherit the IDs by
// endpoint.
func attachPathIDs(rep *Report, sigs *netlist.Signatures) {
	if len(rep.Paths) == 0 {
		return
	}
	setup := netlist.NewIDCounter("timing", "setup")
	hold := netlist.NewIDCounter("timing", "hold")
	byEndpoint := make(map[netlist.NodeID]int, len(rep.Paths))
	for i := range rep.Paths {
		p := &rep.Paths[i]
		sig := sigs.SubjectSig(rep.Circuit.NodeName(p.Endpoint))
		if base, n := setup.Count(sig); p.SetupSlack < 0 {
			p.SetupID = setup.ID(base, n)
		}
		if base, n := hold.Count(sig); p.HoldSlack < 0 {
			p.HoldID = hold.ID(base, n)
		}
		byEndpoint[p.Endpoint] = i
	}
	for i := range rep.Races {
		if j, ok := byEndpoint[rep.Races[i].Endpoint]; ok {
			rep.Races[i].SetupID = rep.Paths[j].SetupID
			rep.Races[i].HoldID = rep.Paths[j].HoldID
		}
	}
}

// analyzer carries working state for a run.
type analyzer struct {
	rec *recognize.Result
	c   *netlist.Circuit
	opt Options
	adj *netlist.Adjacency

	loadFF []float64 // per node: nominal load capacitance
	arcs   []Arc
	// fanout in compressed sparse row form: arc indices leaving node n
	// are fanArcs[fanOff[n]:fanOff[n+1]], in arc-insertion order.
	fanOff  []int32
	fanArcs []int32
	isState []bool                    // per node
	clockOf map[netlist.NodeID]string // state node → clock net name

	// capture accumulates data arrivals at state endpoints (hasCapture
	// gates validity, capIDs lists them in first-capture order); predMax
	// and predMin record the arc source that produced each bound, for
	// path reconstruction (InvalidNode = none). All are node-indexed.
	capture    []Bounds
	hasCapture []bool
	capIDs     []netlist.NodeID
	predMax    []netlist.NodeID
	predMin    []netlist.NodeID
	capPredMax []netlist.NodeID
	capPredMin []netlist.NodeID
}

// buildArcs derives timing arcs from each recognized group (gate input →
// output with bounded switch delay) and from extracted resistors (RC
// settling arcs).
func (a *analyzer) buildArcs() {
	for gi, g := range a.rec.Groups {
		for _, f := range g.Funcs {
			out := f.Node
			rMin, rMax := a.driveRes(g, out)
			if math.IsInf(rMax, 1) {
				continue // output never driven: no arc
			}
			loadMin := a.loadFF[out] / a.opt.CouplingPessimism
			loadMax := a.loadFF[out] * a.opt.CouplingPessimism
			delay := Bounds{
				Min: 0.69 * rMin * loadMin * 1e-3,
				Max: 0.69 * rMax * loadMax * 1e-3,
			}
			// Arcs from every (non-clock) input that can switch out.
			for _, in := range a.inputsOf(g) {
				if a.rec.IsClock(in) {
					continue // clocked launches handled at endpoints
				}
				if a.c.Nodes[in].HasAttr("false_path") {
					continue // designer-declared false path (§4.3)
				}
				a.addArc(Arc{From: in, To: out, DelayPS: delay, Group: gi})
			}
		}
	}
	// Pass-transistor data arcs: a signal entering a group through a
	// device channel (tgate, steering mux, latch D input) propagates to
	// the group's outputs with the pass path's RC delay.
	for gi, g := range a.rec.Groups {
		for _, ci := range g.ChannelInputs {
			if a.c.Nodes[ci].HasAttr("false_path") {
				continue
			}
			for _, out := range g.Outputs {
				if out == ci {
					continue
				}
				rMin, rMax := math.Inf(1), 0.0
				for _, path := range a.rec.ChannelPaths(g, ci, out) {
					fastR, slowR := 0.0, 0.0
					for _, d := range path {
						fastR += a.opt.Proc.Reff(d.Type, d.Vt, d.W, d.Leff(), process.Fast)
						slowR += a.opt.Proc.Reff(d.Type, d.Vt, d.W, d.Leff(), process.Slow)
					}
					if fastR < rMin {
						rMin = fastR
					}
					if slowR > rMax {
						rMax = slowR
					}
				}
				if rMax == 0 || math.IsInf(rMin, 1) {
					continue
				}
				delay := Bounds{
					Min: 0.69 * rMin * a.loadFF[out] / a.opt.CouplingPessimism * 1e-3,
					Max: 0.69 * rMax * a.loadFF[out] * a.opt.CouplingPessimism * 1e-3,
				}
				a.addArc(Arc{From: ci, To: out, DelayPS: delay, Group: gi})
			}
		}
	}
	// Extracted resistors: settling arcs both directions.
	for _, r := range a.c.Resistors {
		if a.c.IsSupply(r.A) || a.c.IsSupply(r.B) {
			continue
		}
		dAB := 0.69 * r.Ohms * a.loadFF[r.B] * 1e-3
		dBA := 0.69 * r.Ohms * a.loadFF[r.A] * 1e-3
		a.addArc(Arc{From: r.A, To: r.B, DelayPS: Bounds{Min: dAB * 0.8, Max: dAB * 1.2}, Group: -1})
		a.addArc(Arc{From: r.B, To: r.A, DelayPS: Bounds{Min: dBA * 0.8, Max: dBA * 1.2}, Group: -1})
	}
}

// addArc appends an arc; buildFanout indexes the full set afterwards.
func (a *analyzer) addArc(arc Arc) {
	a.arcs = append(a.arcs, arc)
}

// buildFanout indexes the arcs by source node in CSR form, preserving
// arc-insertion order within each node's range.
func (a *analyzer) buildFanout() {
	a.fanOff = make([]int32, len(a.c.Nodes)+1)
	for _, arc := range a.arcs {
		a.fanOff[arc.From+1]++
	}
	for i := 1; i <= len(a.c.Nodes); i++ {
		a.fanOff[i] += a.fanOff[i-1]
	}
	a.fanArcs = make([]int32, len(a.arcs))
	cur := make([]int32, len(a.c.Nodes))
	copy(cur, a.fanOff)
	for i, arc := range a.arcs {
		a.fanArcs[cur[arc.From]] = int32(i)
		cur[arc.From]++
	}
}

// inputsOf returns the group's gate inputs (non-supply gate nets).
func (a *analyzer) inputsOf(g *recognize.Group) []netlist.NodeID {
	return g.Inputs
}

// driveRes bounds the switching resistance seen at a group output: the
// strongest single path (min, fast corner) and the weakest (max, slow
// corner) over pull-up and pull-down networks. §4.3: "timing models must
// also be smart enough to setup the delay calculation for the worst case
// min (fastest delay time) and max (slowest delay time)."
func (a *analyzer) driveRes(g *recognize.Group, out netlist.NodeID) (rMin, rMax float64) {
	p := a.opt.Proc
	rMin, rMax = math.Inf(1), 0.0
	found := false
	vdd := a.c.FindNode(netlist.VddName)
	vss := a.c.FindNode(netlist.VssName)
	for _, rail := range []netlist.NodeID{vdd, vss} {
		if rail == netlist.InvalidNode {
			continue
		}
		for _, path := range a.rec.ChannelPaths(g, out, rail) {
			fastR, slowR := 0.0, 0.0
			for _, d := range path {
				fastR += p.Reff(d.Type, d.Vt, d.W, d.Leff(), process.Fast)
				slowR += p.Reff(d.Type, d.Vt, d.W, d.Leff(), process.Slow)
			}
			if fastR < rMin {
				rMin = fastR
			}
			if slowR > rMax {
				rMax = slowR
			}
			found = true
		}
	}
	if !found {
		return math.Inf(1), math.Inf(1)
	}
	return rMin, rMax
}

// launchBounds returns the arrival bounds and whether the node launches.
func (a *analyzer) launchBounds(id netlist.NodeID) (Bounds, bool) {
	n := a.c.Nodes[id]
	name := n.Name
	if b, ok := a.opt.InputArrival[name]; ok {
		return b, true
	}
	if a.rec.IsClock(id) {
		return Bounds{}, false
	}
	if a.rec.IsState(id) || a.rec.IsDynamic(id) {
		// Launched by its clock's opening edge; clock-to-q is the
		// group's own arc delay, approximated by one FO4 min / two max.
		ph, _ := a.opt.Clock.PhaseOf(a.stateClock(id))
		fo4 := a.opt.Proc.FO4ps(process.Typical)
		return Bounds{Min: ph.OpenPS + 0.5*fo4, Max: ph.OpenPS + 2*fo4}, true
	}
	if n.IsPort && a.isInputPort(id) {
		return Bounds{Min: 0, Max: 0}, true
	}
	return Bounds{}, false
}

// isInputPort reports whether a port is undriven by any group (so it is
// an input).
func (a *analyzer) isInputPort(id netlist.NodeID) bool {
	_, driven := a.rec.DriverOf[id]
	return !driven
}

// stateClock returns the clock net name associated with a state or
// dynamic node ("" if none known).
func (a *analyzer) stateClock(id netlist.NodeID) string {
	if a.clockOf == nil {
		a.clockOf = make(map[netlist.NodeID]string)
		for _, l := range a.rec.Latches {
			for _, sn := range l.StateNodes {
				if len(l.Clocks) > 0 {
					a.clockOf[sn] = a.c.NodeName(l.Clocks[0])
				}
			}
		}
		for _, dn := range a.rec.DynamicNodes {
			if g := a.rec.GroupDriving(dn); g != nil && len(g.ClockNets) > 0 {
				a.clockOf[dn] = a.c.NodeName(g.ClockNets[0])
			}
		}
	}
	return a.clockOf[id]
}

// propagate computes min/max arrivals with a worklist, cutting paths at
// state endpoints. Loops through state elements are broken (captured
// there); purely combinational loops are bounded by iteration count and
// reported via Levels.
func (a *analyzer) propagate(rep *Report) {
	nn := len(a.c.Nodes)
	a.capture = make([]Bounds, nn)
	a.hasCapture = make([]bool, nn)
	a.predMax = make([]netlist.NodeID, nn)
	a.predMin = make([]netlist.NodeID, nn)
	a.capPredMax = make([]netlist.NodeID, nn)
	a.capPredMin = make([]netlist.NodeID, nn)
	for i := 0; i < nn; i++ {
		a.predMax[i] = netlist.InvalidNode
		a.predMin[i] = netlist.InvalidNode
		a.capPredMax[i] = netlist.InvalidNode
		a.capPredMin[i] = netlist.InvalidNode
	}
	a.isState = make([]bool, nn)
	for _, s := range a.rec.StateNodes {
		a.isState[s] = true
	}
	// Arrivals live in flat node-indexed arrays during the worklist run;
	// the exposed Report.Arrival map is filled once at the end.
	arr := make([]Bounds, nn)
	hasArr := make([]bool, nn)
	isLaunch := make([]bool, nn)
	queue := make([]netlist.NodeID, 0, nn)
	inQueue := make([]bool, nn)
	push := func(id netlist.NodeID) {
		if !inQueue[id] {
			inQueue[id] = true
			queue = append(queue, id)
		}
	}
	for id := 0; id < nn; id++ {
		nid := netlist.NodeID(id)
		if b, ok := a.launchBounds(nid); ok {
			arr[id] = b
			hasArr[id] = true
			isLaunch[id] = true
			push(nid)
		}
	}
	iter := 0
	head := 0
	maxIter := 4 * (len(a.arcs) + nn + 1)
	for head < len(queue) && iter < maxIter {
		iter++
		id := queue[head]
		head++
		if head > nn && head*2 > len(queue) {
			// Compact the drained prefix so the queue stays O(nodes).
			queue = queue[:copy(queue, queue[head:])]
			head = 0
		}
		inQueue[id] = false
		from := arr[id]
		for _, ai := range a.fanArcs[a.fanOff[id]:a.fanOff[id+1]] {
			arc := &a.arcs[ai]
			nb := Bounds{Min: from.Min + arc.DelayPS.Min, Max: from.Max + arc.DelayPS.Max}
			// Do not propagate *through* a state endpoint: data is
			// captured there and re-launched by its clock. Feedback
			// from a state node of the SAME latch is the keeper doing
			// its job, not a data capture — recording it would mask
			// the real (cross-latch) min-arrival race path.
			if a.isState[arc.To] {
				if !a.sameLatch(id, arc.To) {
					a.mergeCapture(arc.To, nb, id)
				}
				continue
			}
			if isLaunch[arc.To] {
				continue // launch points keep their launch times
			}
			changed := false
			if !hasArr[arc.To] {
				arr[arc.To] = nb
				hasArr[arc.To] = true
				a.predMax[arc.To] = id
				a.predMin[arc.To] = id
				changed = true
			} else {
				merged := arr[arc.To]
				if nb.Min < merged.Min {
					merged.Min = nb.Min
					a.predMin[arc.To] = id
					changed = true
				}
				if nb.Max > merged.Max {
					merged.Max = nb.Max
					a.predMax[arc.To] = id
					changed = true
				}
				arr[arc.To] = merged
			}
			if changed {
				push(arc.To)
			}
		}
	}
	rep.Levels = iter
	for id := 0; id < nn; id++ {
		if hasArr[id] {
			rep.Arrival[netlist.NodeID(id)] = arr[id]
		}
	}
}

// mergeCapture accumulates a data arrival at a state endpoint.
func (a *analyzer) mergeCapture(id netlist.NodeID, b Bounds, from netlist.NodeID) {
	if !a.hasCapture[id] {
		a.capture[id] = b
		a.hasCapture[id] = true
		a.capIDs = append(a.capIDs, id)
		a.capPredMax[id] = from
		a.capPredMin[id] = from
		return
	}
	old := a.capture[id]
	if b.Min < old.Min {
		old.Min = b.Min
		a.capPredMin[id] = from
	}
	if b.Max > old.Max {
		old.Max = b.Max
		a.capPredMax[id] = from
	}
	a.capture[id] = old
}
