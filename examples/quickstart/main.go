// Quickstart: build a footed domino gate transistor by transistor, let
// the toolkit deduce what it is, verify it the CBV way, and watch it
// compute at switch level.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/process"
	"repro/internal/recognize"
	"repro/internal/switchsim"
)

func main() {
	// 1. Transistors are the building elements (§2). A footed domino
	//    AND2 with keeper and output buffer, every device sized by hand.
	c := netlist.New("domino_and2")
	for _, p := range []string{"a", "b", "out"} {
		c.DeclarePort(p)
	}
	c.PMOS("mpre", "phi1", "vdd", "dyn", 4, 0.75) // precharge
	c.NMOS("ma", "a", "x1", "dyn", 6, 0.75)       // evaluate tree
	c.NMOS("mb", "b", "x2", "x1", 6, 0.75)
	c.NMOS("mfoot", "phi1", "vss", "x2", 8, 0.75) // clocked foot
	c.NMOS("mbn", "dyn", "vss", "out", 2, 0.75)   // output buffer
	c.PMOS("mbp", "dyn", "vdd", "out", 4, 0.75)
	c.PMOS("mkeep", "out", "vdd", "dyn", 1, 1.125) // weak keeper

	// 2. Recognition deduces the meaning with no cell library (§2.3).
	rec, err := recognize.Analyze(c)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recognition:", rec.Summary())
	dyn := c.FindNode("dyn")
	g := rec.GroupDriving(dyn)
	fmt.Printf("  dyn is a %s node (footed=%v), evaluate function = %s\n",
		g.Family, g.Footed, g.Func(dyn).Function)

	// 3. Correct by verification: the full §4.2 battery plus timing.
	rep, err := core.Verify(c, core.Options{Proc: process.CMOS075()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Summary())

	// 4. And watch it work at switch level: precharge, then evaluate.
	//    The simulator carries 64 stimulus lanes; one vector drives them
	//    all alike and reads lane 0.
	sim, err := switchsim.NewPacked(c)
	if err != nil {
		log.Fatal(err)
	}
	sim.SetQuietAll("phi1", switchsim.Lo)
	sim.SetQuietAll("a", switchsim.Hi)
	sim.SetQuietAll("b", switchsim.Hi)
	sim.Settle()
	fmt.Printf("precharge: dyn=%v out=%v\n", sim.GetLane("dyn", 0), sim.GetLane("out", 0))
	sim.SetQuietAll("phi1", switchsim.Hi)
	sim.Settle()
	fmt.Printf("evaluate(a=1,b=1): dyn=%v out=%v  (out = a AND b)\n", sim.GetLane("dyn", 0), sim.GetLane("out", 0))
}
