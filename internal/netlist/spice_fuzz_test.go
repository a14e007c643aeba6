package netlist_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
)

// FuzzDeckRoundTrip holds the deck reader and writer to the oracle
// engines in spice_oracle_test.go and to the round-trip contract. For
// any input, ParseNamed and the oracle parser fail with the same text or
// build identical libraries; Write prints the oracle writer's bytes; the
// written deck parses back with every cell's Fingerprint unchanged; and
// from the second pass on, writing is a fixed point. (The first pass may
// reorder cw lines: Write numbers them in node order, and a deck whose
// caps come before its devices creates its nodes in another order.)
func FuzzDeckRoundTrip(f *testing.F) {
	decks, err := filepath.Glob("../../examples/decks/*.sp")
	if err != nil || len(decks) == 0 {
		f.Fatalf("example decks: %v (%d found)", err, len(decks))
	}
	for _, path := range decks {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	lib, _ := designs.DeepTree(2, 3, 0)
	f.Add(render(f, netlist.Write, lib, netlist.New("deck")))

	f.Fuzz(func(t *testing.T, deck []byte) {
		lib, top, err := netlist.ParseNamed(bytes.NewReader(deck), "fuzz.sp")
		olib, otop, oerr := netlist.OracleParseNamed(bytes.NewReader(deck), "fuzz.sp")
		if errText(err) != errText(oerr) {
			t.Fatalf("ParseNamed error %q, oracle %q", errText(err), errText(oerr))
		}
		if err != nil {
			return
		}
		if got, want := dumpDeck(lib, top), dumpDeck(olib, otop); got != want {
			t.Fatalf("ParseNamed and the oracle built different libraries:\n%s\noracle:\n%s", got, want)
		}
		out := render(t, netlist.Write, lib, top)
		if want := render(t, netlist.OracleWrite, lib, top); !bytes.Equal(out, want) {
			t.Fatalf("Write differs from the oracle writer:\n%s\noracle:\n%s", out, want)
		}
		lib2, top2, err := netlist.Parse(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("written deck does not parse: %v\n%s", err, out)
		}
		if got, want := fingerprints(lib2, top2), fingerprints(lib, top); got != want {
			t.Fatalf("Fingerprints changed over Write→Parse:\n%s\nwas:\n%s\ndeck:\n%s", got, want, out)
		}
		second := render(t, netlist.Write, lib2, top2)
		lib3, top3, err := netlist.Parse(bytes.NewReader(second))
		if err != nil {
			t.Fatalf("second written deck does not parse: %v\n%s", err, second)
		}
		if third := render(t, netlist.Write, lib3, top3); !bytes.Equal(third, second) {
			t.Fatalf("written deck not stable from its second pass:\n%s\nthen:\n%s", second, third)
		}
	})
}

// render returns write's deck for lib and top.
func render(tb testing.TB, write func(w io.Writer, lib *netlist.Library, top *netlist.Circuit) error, lib *netlist.Library, top *netlist.Circuit) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := write(&buf, lib, top); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// fingerprints lists every cell's Fingerprint and the top's.
func fingerprints(lib *netlist.Library, top *netlist.Circuit) string {
	var b strings.Builder
	for _, name := range lib.Cells() {
		fmt.Fprintf(&b, "%s %s\n", name, lib.Cell(name).Fingerprint())
	}
	fmt.Fprintf(&b, "top %s\n", top.Fingerprint())
	return b.String()
}

// dumpDeck renders everything a parse builds: cells, nodes in order with
// their names, CapFF bits, port flags and attributes, ports, and every
// element field including Loc.
func dumpDeck(lib *netlist.Library, top *netlist.Circuit) string {
	var b strings.Builder
	for _, name := range lib.Cells() {
		dumpCircuit(&b, lib.Cell(name))
	}
	dumpCircuit(&b, top)
	return b.String()
}

func dumpCircuit(b *strings.Builder, c *netlist.Circuit) {
	fmt.Fprintf(b, "circuit %q %v ports=%v\n", c.Name, c.Loc, c.Ports)
	for i, n := range c.Nodes {
		fmt.Fprintf(b, " node %d %q cap=%#x port=%t", i, n.Name, math.Float64bits(n.CapFF), n.IsPort)
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(b, " %q=%q", k, n.Attrs[k])
		}
		b.WriteByte('\n')
	}
	for _, d := range c.Devices {
		fmt.Fprintf(b, " m %q %v %v d=%d g=%d s=%d b=%d w=%#x l=%#x extral=%#x %v\n", d.Name, d.Type, d.Vt,
			d.Drain, d.Gate, d.Source, d.Bulk,
			math.Float64bits(d.W), math.Float64bits(d.L), math.Float64bits(d.ExtraL), d.Loc)
	}
	for _, r := range c.Resistors {
		fmt.Fprintf(b, " r %q %d %d %#x %v\n", r.Name, r.A, r.B, math.Float64bits(r.Ohms), r.Loc)
	}
	for _, inst := range c.Instances {
		fmt.Fprintf(b, " x %q %q %v %v\n", inst.Name, inst.Cell, inst.Conns, inst.Loc)
	}
}
