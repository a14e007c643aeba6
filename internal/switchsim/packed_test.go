package switchsim_test

// Differential lane-vs-scalar equivalence: every lane of a PackedSim
// must be bit-identical to an independent Scalar oracle driven with that
// lane's stimulus — including X propagation (X stimulus lanes are
// injected), charge retention on released nodes, charge-sharing
// degradation and fight resolution. The scalar engine is the oracle;
// any packed/scalar divergence is a packed-kernel bug by definition.

import (
	"fmt"
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/process"
	"repro/internal/switchsim"
)

// diffEntry pairs a corpus design with a step budget: the 64 scalar
// oracle settles per step make big SRAM arrays expensive, so those get
// fewer steps (coverage of their paths is structural, not per-step).
type diffEntry struct {
	build func() *netlist.Circuit
	steps int
}

// diffCorpus mirrors the fcv bench zoo (24 parametric designs) plus
// the strength/fight-heavy extras.
func diffCorpus() map[string]diffEntry {
	corpus := map[string]diffEntry{}
	for _, n := range []int{8, 12, 16, 24, 32, 48} {
		n := n
		corpus[fmt.Sprintf("invchain%d", n)] = diffEntry{func() *netlist.Circuit { return designs.InverterChain(n) }, 10}
	}
	for _, bits := range []int{8, 12, 16, 20, 24, 32} {
		bits := bits
		corpus[fmt.Sprintf("adder%d", bits)] = diffEntry{func() *netlist.Circuit { return designs.DominoAdder(bits) }, 10}
	}
	for _, stages := range []int{4, 6, 8, 10, 12, 14} {
		stages := stages
		corpus[fmt.Sprintf("pipeline%d", stages)] = diffEntry{func() *netlist.Circuit { return designs.LatchPipeline(stages, false) }, 10}
	}
	corpus["racy_pipeline"] = diffEntry{func() *netlist.Circuit { return designs.LatchPipeline(5, true) }, 10}
	corpus["sram8x4"] = diffEntry{func() *netlist.Circuit { return designs.SRAMArray(8, 4, 0.09) }, 6}
	corpus["sram16x8"] = diffEntry{func() *netlist.Circuit { return designs.SRAMArray(16, 8, 0.09) }, 3}
	corpus["sram16x16"] = diffEntry{func() *netlist.Circuit { return designs.SRAMArray(16, 16, 0.09) }, 2}
	for _, n := range []int{4, 8, 16} {
		n := n
		corpus[fmt.Sprintf("passmux%d", n)] = diffEntry{func() *netlist.Circuit { return designs.PassMux(n) }, 10}
	}
	corpus["dcvsl4"] = diffEntry{func() *netlist.Circuit { return designs.DCVSLComparator(4) }, 10}
	corpus["regfile4x4"] = diffEntry{func() *netlist.Circuit { return designs.RegisterFile(4, 4) }, 8}
	return corpus
}

// seededDecks are the defect fixtures: they exist precisely because
// they trip fights, races and charge hazards — the rare packed-kernel
// paths.
var seededDecks = []string{
	"../../examples/decks/broken_lint.sp",
	"../../examples/decks/c2mos_pipe.sp",
	"../../examples/decks/c2mos_pipe_clean.sp",
	"../../examples/decks/nora_stage.sp",
	"../../examples/decks/nora_stage_clean.sp",
	"../../examples/decks/sneak_path.sp",
	"../../examples/decks/sneak_path_clean.sp",
	"../../examples/decks/domino_and2.sp",
	"../../examples/decks/latch_pipeline.sp",
}

// loadDeck parses and flattens a deck fixture (the fcv loadFlat rule).
func loadDeck(t *testing.T, path string) *netlist.Circuit {
	t.Helper()
	lib, top, err := netlist.ParseFile(path)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	if len(top.Devices) == 0 && len(top.Instances) == 0 {
		cells := lib.Cells()
		if len(cells) == 0 {
			t.Fatalf("%s: empty deck", path)
		}
		c, err := lib.Flatten(cells[len(cells)-1])
		if err != nil {
			t.Fatalf("flatten %s: %v", path, err)
		}
		return c
	}
	lib.Add(top)
	c, err := lib.Flatten(top.Name)
	if err != nil {
		t.Fatalf("flatten %s: %v", path, err)
	}
	return c
}

// laneStim is one port's per-lane stimulus: X where xm is set, else
// the hi bit decides.
type laneStim struct {
	port   string
	hi, xm uint64
}

func (ls laneStim) value(lane int) switchsim.Value {
	bit := uint64(1) << uint(lane)
	if ls.xm&bit != 0 {
		return switchsim.X
	}
	return switchsim.Bool(ls.hi&bit != 0)
}

// comparePackedScalar asserts every lane of the packed sim matches its
// scalar twin on every non-supply node.
func comparePackedScalar(t *testing.T, label string, p *switchsim.PackedSim, scalars []*switchsim.Scalar) {
	t.Helper()
	c := p.Circuit()
	for id := range c.Nodes {
		nid := netlist.NodeID(id)
		if c.IsSupply(nid) {
			continue
		}
		for lane := range scalars {
			got := p.GetLaneID(nid, lane)
			want := scalars[lane].GetID(nid)
			if got != want {
				t.Fatalf("%s: node %s lane %d: packed %v, scalar %v",
					label, c.NodeName(nid), lane, got, want)
			}
		}
	}
}

// runPackedDiff drives one packed sim and 64 scalar sims through an
// identical randomized stimulus schedule — batched per-lane input
// changes (with an ~12%% X-lane rate), releases that float charged
// nodes, and resettles — comparing complete per-lane states after
// every settle.
func runPackedDiff(t *testing.T, c *netlist.Circuit, steps int, seed int64) {
	packed, err := switchsim.NewPacked(c)
	if err != nil {
		t.Fatal(err)
	}
	scalars := make([]*switchsim.Scalar, switchsim.Lanes)
	for i := range scalars {
		s, err := switchsim.NewScalar(c)
		if err != nil {
			t.Fatal(err)
		}
		scalars[i] = s
	}

	var ports []string
	for _, id := range c.Ports {
		if !c.IsSupply(id) {
			ports = append(ports, c.NodeName(id))
		}
	}
	if len(ports) == 0 {
		t.Skip("no drivable ports")
	}

	packed.Settle()
	for _, s := range scalars {
		s.Settle()
	}
	comparePackedScalar(t, "initial settle", packed, scalars)

	rng := obs.NewRNG(seed)
	released := map[string]bool{}
	for step := 0; step < steps; step++ {
		if rng.Float64() < 0.15 {
			// Release a port: its lanes keep charge or float into the
			// charge-sharing rules.
			port := ports[rng.Intn(len(ports))]
			released[port] = true
			packed.Release(port)
			for _, s := range scalars {
				s.Release(port)
			}
			comparePackedScalar(t, fmt.Sprintf("step %d release %s", step, port), packed, scalars)
			continue
		}
		var batch []laneStim
		for _, port := range ports {
			if rng.Float64() > 0.7 {
				continue
			}
			ls := laneStim{port: port, hi: rng.Uint64(), xm: rng.Uint64() & rng.Uint64() & rng.Uint64()}
			batch = append(batch, ls)
			delete(released, port)
			packed.SetQuietLanes(port, ls.hi|ls.xm, ^ls.hi|ls.xm)
			for lane, s := range scalars {
				s.SetQuiet(port, ls.value(lane))
			}
		}
		packed.Settle()
		for _, s := range scalars {
			s.Settle()
		}
		comparePackedScalar(t, fmt.Sprintf("step %d batch(%d ports)", step, len(batch)), packed, scalars)
	}
}

// TestPackedLaneEquivalenceCorpus sweeps the full parametric design
// corpus. The designs run in parallel: the two SRAM arrays alone take
// most of the sweep, and under -race it neared go test's 10-minute
// per-package default when run serially.
func TestPackedLaneEquivalenceCorpus(t *testing.T) {
	for name, ent := range diffCorpus() {
		name, ent := name, ent
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			steps := ent.steps
			if testing.Short() {
				steps = (steps + 2) / 3
			}
			runPackedDiff(t, ent.build(), steps, int64(len(name))*7919+42)
		})
	}
}

// TestPackedLaneEquivalenceDecks sweeps the seeded-defect deck
// fixtures (and their clean twins).
func TestPackedLaneEquivalenceDecks(t *testing.T) {
	steps := 10
	if testing.Short() {
		steps = 3
	}
	for _, path := range seededDecks {
		path := path
		t.Run(path, func(t *testing.T) {
			runPackedDiff(t, loadDeck(t, path), steps, 1234)
		})
	}
}

// TestPackedLaneIndependence pins the defining property of lane
// packing directly: a lane's result depends only on its own stimulus.
// Lane 17 of a 64-lane run with garbage in every other lane must equal
// lane 0 of a run carrying only that stimulus.
func TestPackedLaneIndependence(t *testing.T) {
	c := designs.DominoAdder(8)
	noisy, err := switchsim.NewPacked(c)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := switchsim.NewPacked(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := obs.NewRNG(99)
	const lane = 17
	for step := 0; step < 6; step++ {
		for _, port := range []string{"phi", "a0", "b0", "a1", "b1", "cin"} {
			want := switchsim.Bool(rng.Float64() < 0.5)
			noise := rng.Uint64()
			hi, lo := noise, ^noise
			bit := uint64(1) << lane
			if want == switchsim.Hi {
				hi |= bit
				lo &^= bit
			} else {
				lo |= bit
				hi &^= bit
			}
			noisy.SetQuietLanes(port, hi, lo)
			clean.SetQuietAll(port, want)
		}
		noisy.Settle()
		clean.Settle()
		for id := range c.Nodes {
			nid := netlist.NodeID(id)
			if c.IsSupply(nid) {
				continue
			}
			if g, w := noisy.GetLaneID(nid, lane), clean.GetLaneID(nid, 0); g != w {
				t.Fatalf("step %d node %s: noisy lane %d = %v, clean = %v", step, c.NodeName(nid), lane, g, w)
			}
		}
	}
}

// fuzzWidths are the channel widths generated networks draw from. At
// unit length they give conductances 1, 2, 4 and 5 (NMOS) and 0.4, 0.8,
// 1.6 and 2 (PMOS), so many fights land exactly on strengthRatio.
var fuzzWidths = []float64{1, 2, 4, 5}

// decodeSwitchNet turns fuzz input into a small switch network and a
// stimulus seed. Every byte string decodes; a missing byte reads as 0.
// The network has 1–4 input ports, 1–7 internal nodes (the bits of one
// byte declare some of them ports) and 1–12 devices whose gate, source
// and drain are drawn from every net, the rails included, so
// self-loops, rail-gated and rail-to-rail devices all occur. One
// network in eight has no vdd and one in eight no vss.
func decodeSwitchNet(data []byte) (*netlist.Circuit, int64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nIn, nInt, nDev := 1+int(next()%4), 1+int(next()%7), 1+int(next()%12)
	rails, portMask := next()%8, next()
	c := netlist.New("fuzz")
	var nets []string
	for i := 0; i < nIn; i++ {
		nets = append(nets, fmt.Sprintf("in%d", i))
		c.DeclarePort(nets[i])
	}
	for i := 0; i < nInt; i++ {
		name := fmt.Sprintf("n%d", i)
		nets = append(nets, name)
		if portMask>>uint(i)&1 == 1 {
			c.DeclarePort(name)
		} else {
			c.Node(name)
		}
	}
	if rails != 0 {
		nets = append(nets, netlist.VddName)
	}
	if rails != 1 {
		nets = append(nets, netlist.VssName)
	}
	for i := 0; i < nDev; i++ {
		kind, g, s, d := next(), next(), next(), next()
		typ := process.NMOS
		if kind&1 == 1 {
			typ = process.PMOS
		}
		w := fuzzWidths[int(kind>>1)%len(fuzzWidths)]
		src := nets[int(s)%len(nets)]
		// The bulk rides on the source so it never adds a rail.
		c.AddDevice(fmt.Sprintf("m%d", i), typ, nets[int(g)%len(nets)], src, nets[int(d)%len(nets)], src, w, 1)
	}
	var seed int64
	for i := 0; i < 8; i++ {
		seed = seed<<8 | int64(next())
	}
	return c, seed
}

// FuzzPackedLaneEquivalence holds every lane of PackedSim to the scalar
// oracle on generated switch networks. The corpus designs and decks are
// well-formed circuits; generated networks add what they lack: fights
// that land exactly on strengthRatio, rail-gated and self-looped
// devices, and missing rails. The seed corpus is 1000 generator
// outputs, so a plain go test sweeps them all (a third under -short).
func FuzzPackedLaneEquivalence(f *testing.F) {
	n := 1000
	if testing.Short() {
		n = (n + 2) / 3
	}
	rng := obs.NewRNG(25)
	for i := 0; i < n; i++ {
		buf := make([]byte, 5+4*12+8)
		for j := range buf {
			buf[j] = byte(rng.Uint64())
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, seed := decodeSwitchNet(data)
		runPackedDiff(t, c, 8, seed)
	})
}
