package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/checks"
	"repro/internal/designs"
	"repro/internal/netlist"
)

// brokenCell builds a circuit with a floating gate — an error-severity
// lint finding — that recognition alone happily accepts.
func brokenCell() *netlist.Circuit {
	c := netlist.New("broken")
	c.DeclarePort("a")
	c.DeclarePort("y")
	c.NMOS("mn", "ghost", "vss", "y", 2, 0.75)
	c.PMOS("mp", "a", "vdd", "y", 4, 0.75)
	return c
}

func TestVerifyLintGateBlocksErrors(t *testing.T) {
	c := brokenCell()
	// Without the gate, verification proceeds.
	if _, err := Verify(c, opts()); err != nil {
		t.Fatalf("ungated Verify failed: %v", err)
	}
	opt := opts()
	opt.Lint = true
	_, err := Verify(c, opt)
	var gate *LintGateError
	if !errors.As(err, &gate) {
		t.Fatalf("gated Verify = %v, want *LintGateError", err)
	}
	if gate.Design != "broken" || !gate.Report.HasErrors() {
		t.Errorf("gate = %+v", gate)
	}
	if !strings.Contains(gate.Error(), "lint gate") {
		t.Errorf("gate message = %q", gate.Error())
	}
}

func TestVerifyLintWarningsRaiseInspectLoad(t *testing.T) {
	// A dangling-terminal warning survives the gate but must show up as
	// designer inspection work.
	c := netlist.New("warned")
	c.DeclarePort("a")
	c.DeclarePort("y")
	designs.AddInverter(c, "i", "a", "y", 2, 4)
	c.NMOS("mdg", "a", "vss", "stub", 2, 0.75)

	base := opts()
	ungated, err := Verify(c, base)
	if err != nil {
		t.Fatal(err)
	}
	gatedOpt := opts()
	gatedOpt.Lint = true
	gated, err := Verify(c, gatedOpt)
	if err != nil {
		t.Fatalf("warn-only circuit tripped the gate: %v", err)
	}
	if gated.InspectLoad <= ungated.InspectLoad {
		t.Errorf("inspect load %d not raised above ungated %d by lint warning",
			gated.InspectLoad, ungated.InspectLoad)
	}
	if gated.Verdict < checks.Inspect {
		t.Errorf("verdict = %v, want at least Inspect", gated.Verdict)
	}
	if gated.Lint == nil {
		t.Error("lint report not attached")
	}
	if !strings.Contains(gated.Summary(), "lint:") {
		t.Errorf("summary missing lint line:\n%s", gated.Summary())
	}
}
