package recognize_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/checks"
	"repro/internal/dataflow"
	"repro/internal/designs"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/process"
	"repro/internal/recognize"
)

// TestKeeperSharedByConsumers pins the one keeper rule its consumers
// read: every carry stage of DominoAdder(8) has its keeper, and a stage
// built without one is keeperless to the dynamic-leakage check, lint's
// FCV005 and the dataflow dynamic-node inventory alike.
func TestKeeperSharedByConsumers(t *testing.T) {
	const stages, bare = 8, "mc3"
	c := designs.DominoAdder(stages)
	rec, err := recognize.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < stages; i++ {
		k := rec.Keeper(c.FindNode(fmt.Sprintf("mc%d_dyn", i)))
		if want := fmt.Sprintf("mc%d_keep", i); k == nil || k.Name != want {
			t.Errorf("mc%d_dyn keeper = %v, want %s", i, k, want)
		}
	}

	c = designs.DominoAdder(stages)
	c.Devices = slices.DeleteFunc(c.Devices, func(d *netlist.Device) bool { return d.Name == bare+"_keep" })
	rec, err = recognize.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	dyn := bare + "_dyn"
	if !rec.IsDynamic(c.FindNode(dyn)) {
		t.Fatalf("%s is not recognized as dynamic without its keeper", dyn)
	}
	sigs := netlist.ComputeSignatures(c)

	fs, err := checks.Run("dynamic-leakage", rec, sigs, checks.Options{Proc: process.CMOS075()})
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string]bool{}
	for _, f := range fs {
		kept[f.Subject] = f.Detail == "keeper present"
	}
	for i := 0; i < stages; i++ {
		node := fmt.Sprintf("mc%d_dyn", i)
		if want := node != dyn; kept[node] != want {
			t.Errorf("dynamic-leakage on %s: keeper present = %v, want %v", node, kept[node], want)
		}
	}

	var fired []string
	for _, d := range lint.RunRecognized(rec, sigs, lint.Options{}).Diags {
		if d.Rule == "FCV005" {
			fired = append(fired, d.Subject)
		}
	}
	if !slices.Equal(fired, []string{dyn}) {
		t.Errorf("FCV005 fired on %v, want [%s]", fired, dyn)
	}

	df := dataflow.Analyze(rec)
	for i := 0; i < stages; i++ {
		node := fmt.Sprintf("mc%d_dyn", i)
		dn := df.DynHeld(c.FindNode(node))
		if dn == nil {
			t.Errorf("%s is not in the dynamic-node inventory", node)
			continue
		}
		if want := node != dyn; (dn.Keeper != nil) != want {
			t.Errorf("DynNode(%s).Keeper = %v, want present %v", node, dn.Keeper, want)
		}
	}
}
