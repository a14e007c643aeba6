package shadow

// Shadow is the one-vector shadow, kept only as the test oracle that
// every PackedShadow lane is checked against. Its RTL side is the
// scalar rtl.Sim. Its circuit side is a PackedSim driven alike in all
// lanes and read in lane 0, because the scalar switch-level engine is
// test-only in its own package; the circuit engine's per-lane
// equivalence is pinned there.

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/netlist"
	"repro/internal/rtl"
	"repro/internal/switchsim"
)

// Mismatch records one shadow comparison failure.
type Mismatch struct {
	Cycle   uint64
	Phase   string
	Node    string // circuit node
	Signal  string // RTL reference
	RTL     uint64
	Circuit switchsim.Value
}

// Shadow couples an RTL simulation with a circuit block.
type Shadow struct {
	RTL *rtl.Sim
	Ckt *switchsim.PackedSim
	b   Binding

	// Mismatches accumulates comparison failures (bounded).
	Mismatches []Mismatch
	// Compared counts output comparisons performed.
	Compared int
	// MaxMismatches bounds the log (default 100).
	MaxMismatches int
}

// New validates the binding and returns a coupled shadow simulation.
func New(rtlSim *rtl.Sim, ckt *switchsim.PackedSim, b Binding) (*Shadow, error) {
	for node, sig := range b.Inputs {
		if ckt.Circuit().FindNode(node) < 0 {
			return nil, fmt.Errorf("shadow: input binding to unknown circuit node %q", node)
		}
		if err := checkRTLRef(rtlSim, sig); err != nil {
			return nil, err
		}
	}
	for node, sig := range b.Outputs {
		if ckt.Circuit().FindNode(node) < 0 {
			return nil, fmt.Errorf("shadow: output binding to unknown circuit node %q", node)
		}
		if err := checkRTLRef(rtlSim, sig); err != nil {
			return nil, err
		}
	}
	phases := make(map[string]bool)
	for _, p := range rtlSim.Design().Phases {
		phases[p] = true
	}
	for node, phase := range b.Clocks {
		if ckt.Circuit().FindNode(node) < 0 {
			return nil, fmt.Errorf("shadow: clock binding to unknown circuit node %q", node)
		}
		if !phases[phase] {
			return nil, fmt.Errorf("shadow: clock %q bound to unknown phase %q", node, phase)
		}
	}
	return &Shadow{RTL: rtlSim, Ckt: ckt, b: b, MaxMismatches: 100}, nil
}

// checkRTLRef validates a "name" or "name[bit]" RTL reference.
func checkRTLRef(s *rtl.Sim, ref string) error {
	name, _, err := splitRef(ref)
	if err != nil {
		return err
	}
	if s.Design().SignalIndex(name) < 0 {
		return fmt.Errorf("shadow: unknown RTL signal %q", name)
	}
	return nil
}

// rtlBit reads the bound RTL bit.
func (s *Shadow) rtlBit(ref string) uint64 {
	name, bit, _ := splitRef(ref)
	return (s.RTL.Get(name) >> uint(bit)) & 1
}

// driveInputs copies current RTL values onto the circuit's bound inputs.
func (s *Shadow) driveInputs() {
	for node, ref := range s.b.Inputs {
		s.Ckt.SetQuietAll(node, switchsim.Bool(s.rtlBit(ref) != 0))
	}
}

// setClocks drives the circuit clocks for the active phase.
func (s *Shadow) setClocks(active string) {
	for node, phase := range s.b.Clocks {
		s.Ckt.SetQuietAll(node, switchsim.Bool(phase == active))
	}
}

// compare checks all bound outputs after a phase.
func (s *Shadow) compare(phase string) {
	nodes := make([]string, 0, len(s.b.Outputs))
	for n := range s.b.Outputs {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		ref := s.b.Outputs[node]
		want := s.rtlBit(ref)
		got := s.Ckt.GetLane(node, 0)
		s.Compared++
		if got == switchsim.Bool(want != 0) {
			continue
		}
		if len(s.Mismatches) < s.MaxMismatches {
			s.Mismatches = append(s.Mismatches, Mismatch{
				Cycle:   s.RTL.Cycles(),
				Phase:   phase,
				Node:    node,
				Signal:  ref,
				RTL:     want,
				Circuit: got,
			})
		}
	}
}

// Phase advances both sides through one clock phase and compares, with
// the same settle choreography as PackedShadow.Phase.
func (s *Shadow) Phase(phase string) {
	s.setClocks("")
	s.driveInputs()
	s.Ckt.Settle()
	s.setClocks(phase)
	s.Ckt.Settle()
	s.RTL.Phase(phase)
	s.compare(phase)
	s.setClocks("")
	s.Ckt.Settle()
}

// Cycle advances one full clock cycle through all RTL phases.
func (s *Shadow) Cycle() {
	for _, p := range s.RTL.Design().Phases {
		s.Phase(p)
	}
}

// newShadow builds the oracle over the XOR RTL and the given circuit.
func newShadow(t *testing.T, ckt *netlist.Circuit, b Binding) *Shadow {
	t.Helper()
	prog, err := rtl.ParseString(rtlXor)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rtl.NewSim(prog)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := switchsim.NewPacked(ckt)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := New(rs, cs, b)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}
