// alpha_adder: the ALPHA-style workload end to end — a 16-bit domino
// Manchester-carry adder is generated at transistor level, verified by
// the CBV pipeline, timed, checked against its RTL reference in
// shadow-mode simulation, and floor-estimated by the macrocell engine.
//
//	go run ./examples/alpha_adder
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/layout"
	"repro/internal/process"
	"repro/internal/rtl"
	"repro/internal/shadow"
	"repro/internal/switchsim"
	"repro/internal/timing"
)

const bits = 16

func main() {
	ckt := designs.DominoAdder(bits)
	fmt.Printf("generated %s: %d devices, %d nodes\n",
		ckt.Name, len(ckt.Devices), len(ckt.Nodes))

	// CBV verification.
	rep, err := core.Verify(ckt, core.Options{
		Proc:  process.CMOS075(),
		Clock: timing.TwoPhase(5000), // 200 MHz, the 21064's clock
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Summary())
	if cp := rep.Timing.CriticalPath(); cp != nil {
		fmt.Printf("  critical path: %v\n", rep.Timing.PathNodeNames(cp))
	}

	// Shadow-mode simulation against the RTL reference (§4.1): the RTL
	// is golden; the transistor adder shadows its sum bits on 64 random
	// stimulus lanes per cycle.
	prog, err := rtl.ParseString(designs.AdderRTL(bits))
	if err != nil {
		log.Fatal(err)
	}
	rtlSim, err := rtl.NewPackedSim(prog)
	if err != nil {
		log.Fatal(err)
	}
	cktSim, err := switchsim.NewPacked(ckt)
	if err != nil {
		log.Fatal(err)
	}
	binding := shadow.Binding{
		Inputs:  map[string]string{"cin": "cin"},
		Outputs: map[string]string{},
		Clocks:  map[string]string{"phi1": "phi1"},
	}
	for i := 0; i < bits; i++ {
		binding.Inputs[fmt.Sprintf("a%d", i)] = fmt.Sprintf("a[%d]", i)
		binding.Inputs[fmt.Sprintf("b%d", i)] = fmt.Sprintf("b[%d]", i)
		binding.Outputs[fmt.Sprintf("s%d", i)] = fmt.Sprintf("s[%d]", i)
	}
	binding.Outputs["cout"] = "cout"
	sh, err := shadow.NewPacked(rtlSim, cktSim, binding)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sh.RandomRun(200, 1997, "a", "b", "cin"); err != nil {
		log.Fatal(err)
	}
	fmt.Println(sh.Report())

	// Macrocell layout estimate (§2.2).
	m, err := layout.Place(ckt, process.CMOS075())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("layout estimate:", m.Summary())
}
