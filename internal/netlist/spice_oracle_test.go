package netlist

// The deck reader and writer as they were before the append-based Write
// and the single-pass ParseNamed, kept as test oracles: the fuzz target
// and the round-trip tests compare the production engines against them
// byte for byte and field for field. Only the names differ from the
// originals.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/process"
)

// oracleParseNamed is Parse with a source name recorded on every element's Loc
// (pass "" for an anonymous deck; line numbers are still recorded).
func oracleParseNamed(r io.Reader, srcName string) (*Library, *Circuit, error) {
	lib := NewLibrary()
	top := New("top")
	cur := top

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		lines   []string
		lineNos []int
		lineNo  int
	)
	for sc.Scan() {
		lineNo++
		raw := strings.TrimRight(sc.Text(), " \t\r")
		if strings.HasPrefix(raw, "+") && len(lines) > 0 {
			lines[len(lines)-1] += " " + strings.TrimSpace(raw[1:])
			continue
		}
		lines = append(lines, raw)
		lineNos = append(lineNos, lineNo)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("spice: read: %w", err)
	}

	inSub := false
	for i, raw := range lines {
		no := lineNos[i]
		loc := Loc{File: srcName, Line: no}
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		lower := strings.ToLower(line)
		switch {
		case strings.HasPrefix(lower, "*attr "):
			if err := oracleParseAttr(cur, line[len("*attr "):]); err != nil {
				return nil, nil, &ParseError{no, err.Error()}
			}
			continue
		case strings.HasPrefix(line, "*"), strings.HasPrefix(line, ";"):
			continue
		}
		fields := strings.Fields(line)
		switch {
		case lower == ".end":
			// done
		case strings.HasPrefix(lower, ".subckt"):
			if inSub {
				return nil, nil, &ParseError{no, "nested .subckt not supported"}
			}
			if len(fields) < 2 {
				return nil, nil, &ParseError{no, ".subckt needs a name"}
			}
			cur = New(fields[1])
			cur.Loc = loc
			for _, p := range fields[2:] {
				cur.DeclarePort(p)
			}
			inSub = true
		case strings.HasPrefix(lower, ".ends"):
			if !inSub {
				return nil, nil, &ParseError{no, ".ends without .subckt"}
			}
			lib.Add(cur)
			cur = top
			inSub = false
		case strings.HasPrefix(lower, ".global"), strings.HasPrefix(lower, ".option"):
			// Accepted and ignored: supplies are already global.
		case strings.HasPrefix(lower, "."):
			return nil, nil, &ParseError{no, fmt.Sprintf("unsupported card %q", fields[0])}
		default:
			if err := oracleParseElement(cur, fields, loc); err != nil {
				return nil, nil, &ParseError{no, err.Error()}
			}
		}
	}
	if inSub {
		return nil, nil, &ParseError{lineNo, "missing .ends"}
	}
	return lib, top, nil
}

// oracleParseAttr handles "*attr node key=value" annotations.
func oracleParseAttr(c *Circuit, rest string) error {
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return fmt.Errorf("*attr needs node and key[=value]")
	}
	id := c.Node(fields[0])
	for _, kv := range fields[1:] {
		k, v, _ := strings.Cut(kv, "=")
		if k == "" {
			return fmt.Errorf("*attr %s: empty key in %q", fields[0], kv)
		}
		c.SetAttr(id, k, v)
	}
	return nil
}

// oracleParseElement dispatches one element card to its handler.
func oracleParseElement(c *Circuit, fields []string, loc Loc) error {
	name := fields[0]
	switch strings.ToLower(name[:1]) {
	case "m":
		return oracleParseMOS(c, fields, loc)
	case "c":
		if len(fields) != 4 {
			return fmt.Errorf("capacitor %s: want C name a b value", name)
		}
		v, exp, err := oracleParseScaled(fields[3])
		if err != nil {
			return fmt.Errorf("capacitor %s: %v", name, err)
		}
		// Scale by the suffix's power of ten relative to femto, so 10f
		// is exactly 10 fF and survives Write→Parse unchanged.
		fF := oracleScale10(v, exp+15)
		if !(fF >= 0) || math.IsInf(fF, 0) {
			return fmt.Errorf("capacitor %s: value %s is negative or not finite", name, fields[3])
		}
		// Store as grounded cap on the non-supply end; if both ends
		// are signals, split evenly (coupling belongs to parasitics).
		a, b := fields[1], fields[2]
		switch {
		case oracleIsSupplyName(a) && oracleIsSupplyName(b):
			// decoupling cap: no signal load
		case oracleIsSupplyName(b):
			oracleAddLoad(c, a, fF)
		case oracleIsSupplyName(a):
			oracleAddLoad(c, b, fF)
		default:
			oracleAddLoad(c, a, fF/2)
			oracleAddLoad(c, b, fF/2)
		}
		return nil
	case "r":
		if len(fields) != 4 {
			return fmt.Errorf("resistor %s: want R name a b value", name)
		}
		v, err := oracleParseValue(fields[3])
		if err != nil {
			return fmt.Errorf("resistor %s: %v", name, err)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return fmt.Errorf("resistor %s: value %s is not finite", name, fields[3])
		}
		c.AddResistor(name, fields[1], fields[2], v).Loc = loc
		return nil
	case "x":
		if len(fields) < 3 {
			return fmt.Errorf("instance %s: want X name node... cell", name)
		}
		cell := fields[len(fields)-1]
		c.AddInstance(name, cell, fields[1:len(fields)-1]...).Loc = loc
		return nil
	}
	return fmt.Errorf("unknown element %q", name)
}

// oracleParseMOS handles "Mname d g s b type params".
func oracleParseMOS(c *Circuit, fields []string, loc Loc) error {
	if len(fields) < 6 {
		return fmt.Errorf("device %s: want M name d g s b model params", fields[0])
	}
	var dt process.DeviceType
	model := strings.ToLower(fields[5])
	switch {
	case strings.HasPrefix(model, "n"):
		dt = process.NMOS
	case strings.HasPrefix(model, "p"):
		dt = process.PMOS
	default:
		return fmt.Errorf("device %s: unknown model %q", fields[0], fields[5])
	}
	d := c.AddDevice(fields[0], dt, fields[2], fields[3], fields[1], fields[4], 0, 0)
	d.Loc = loc
	for _, kv := range fields[6:] {
		k, v, ok := strings.Cut(strings.ToLower(kv), "=")
		if !ok {
			return fmt.Errorf("device %s: malformed parameter %q", fields[0], kv)
		}
		switch k {
		case "w", "l", "extral":
			val, err := oracleParseValue(v)
			if err != nil {
				return fmt.Errorf("device %s: %s: %v", fields[0], k, err)
			}
			// Geometry in the deck may be in metres (SPICE) or µm
			// (bare small numbers): values below 1e-3 are metres.
			if val < 1e-3 {
				val *= 1e6
			}
			// Write prints µm, and a value it prints must read back
			// as itself: below 1e-3 it would be taken for metres, and
			// +Inf does not parse.
			if math.Signbit(val) || math.IsNaN(val) || math.IsInf(val, 0) || val > 0 && val < 1e-3 {
				return fmt.Errorf("device %s: %s: %s is not 0 or a finite size of at least 1e-3 µm", fields[0], k, v)
			}
			switch k {
			case "w":
				d.W = val
			case "l":
				d.L = val
			case "extral":
				d.ExtraL = val
			}
		case "vt":
			switch v {
			case "svt":
				d.Vt = process.StandardVt
			case "lvt":
				d.Vt = process.LowVt
			case "hvt":
				d.Vt = process.HighVt
			default:
				return fmt.Errorf("device %s: unknown vt class %q", fields[0], v)
			}
		case "m", "nf", "ad", "as", "pd", "ps":
			// Accepted and ignored layout parameters.
		default:
			return fmt.Errorf("device %s: unknown parameter %q", fields[0], k)
		}
	}
	if d.W <= 0 || d.L <= 0 {
		return fmt.Errorf("device %s: missing w/l", fields[0])
	}
	return nil
}

// oracleSuffixes maps SPICE magnitude suffixes to powers of ten.
var oracleSuffixes = []struct {
	s   string
	exp int
}{
	{"meg", 6},
	{"t", 12}, {"g", 9}, {"k", 3},
	{"m", -3}, {"u", -6}, {"n", -9}, {"p", -12}, {"f", -15}, {"a", -18},
}

// oracleParseValue parses a SPICE numeric value with optional magnitude suffix.
func oracleParseValue(s string) (float64, error) {
	v, exp, err := oracleParseScaled(s)
	return v * math.Pow10(exp), err
}

// oracleParseScaled splits a SPICE numeric value into its number and the power
// of ten its magnitude suffix stands for.
func oracleParseScaled(s string) (float64, int, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	exp := 0
	for _, suf := range oracleSuffixes {
		if strings.HasSuffix(s, suf.s) {
			exp = suf.exp
			s = strings.TrimSuffix(s, suf.s)
			break
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad numeric value %q", s)
	}
	return v, exp, nil
}

// oracleScale10 returns v·10^e. A negative e divides by the exact 10^-e, so a
// decimal value lands on its nearest float.
func oracleScale10(v float64, e int) float64 {
	if e < 0 {
		return v / math.Pow10(-e)
	}
	return v * math.Pow10(e)
}

// oracleIsSupplyName reports whether a deck node name denotes a supply rail.
func oracleIsSupplyName(name string) bool {
	name = canonName(name)
	return name == VddName || name == VssName
}

// oracleAddLoad adds a C card's load to a node. Write emits every node's load
// as one capacitor to vss, so a card creates only what that form reads
// back: the loaded node and vss, and nothing for a zero load.
func oracleAddLoad(c *Circuit, name string, fF float64) {
	if fF > 0 {
		c.Nodes[c.Node(name)].CapFF += fF
		c.Node(VssName)
	}
}

// oracleWrite emits the library and top circuit as a SPICE-subset deck that
// Parse round-trips. Cells are emitted in sorted order for stable diffs.
func oracleWrite(w io.Writer, lib *Library, top *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "* %s — full-custom toolkit netlist\n", top.Name)
	if lib != nil {
		for _, name := range lib.Cells() {
			if err := oracleWriteCircuit(bw, lib.Cell(name), true); err != nil {
				return err
			}
		}
	}
	if err := oracleWriteCircuit(bw, top, false); err != nil {
		return err
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// oracleSpiceName returns name carrying the element-letter prefix the parser
// dispatches on, prepending it when the stored name lacks one. Names
// from parsed decks already start with the right letter and pass
// through untouched; programmatically built circuits (u0_n, inv3, ...)
// get the prefix so Write's round-trip contract holds for them too.
func oracleSpiceName(name string, prefix byte) string {
	if name != "" && name[0]|0x20 == prefix {
		return name
	}
	return string(prefix) + name
}

// oracleWriteCircuit emits one circuit, optionally wrapped in .subckt/.ends.
func oracleWriteCircuit(w io.Writer, c *Circuit, asSubckt bool) error {
	if asSubckt {
		ports := make([]string, len(c.Ports))
		for i, p := range c.Ports {
			ports[i] = c.NodeName(p)
		}
		fmt.Fprintf(w, ".subckt %s %s\n", c.Name, strings.Join(ports, " "))
	}
	for _, d := range c.Devices {
		fmt.Fprintf(w, "%s %s %s %s %s %s w=%g l=%g",
			oracleSpiceName(d.Name, 'm'), c.NodeName(d.Drain), c.NodeName(d.Gate), c.NodeName(d.Source),
			c.NodeName(d.Bulk), d.Type, d.W, d.L)
		if d.ExtraL > 0 {
			fmt.Fprintf(w, " extral=%g", d.ExtraL)
		}
		if d.Vt != process.StandardVt {
			fmt.Fprintf(w, " vt=%s", d.Vt)
		}
		fmt.Fprintln(w)
	}
	for _, r := range c.Resistors {
		fmt.Fprintf(w, "%s %s %s %g\n", oracleSpiceName(r.Name, 'r'), c.NodeName(r.A), c.NodeName(r.B), r.Ohms)
	}
	ci := 0
	for _, n := range c.Nodes {
		if n.CapFF > 0 {
			ci++
			fmt.Fprintf(w, "cw%d %s %s %gf\n", ci, n.Name, VssName, n.CapFF)
		}
	}
	for _, inst := range c.Instances {
		conns := make([]string, len(inst.Conns))
		for i, id := range inst.Conns {
			conns[i] = c.NodeName(id)
		}
		fmt.Fprintf(w, "%s %s %s\n", oracleSpiceName(inst.Name, 'x'), strings.Join(conns, " "), inst.Cell)
	}
	// Attribute annotations last, sorted for stability.
	for _, n := range c.Nodes {
		if len(n.Attrs) == 0 {
			continue
		}
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if v := n.Attrs[k]; v != "" {
				fmt.Fprintf(w, "*attr %s %s=%s\n", n.Name, k, v)
			} else {
				fmt.Fprintf(w, "*attr %s %s\n", n.Name, k)
			}
		}
	}
	if asSubckt {
		fmt.Fprintln(w, ".ends")
	}
	return nil
}
