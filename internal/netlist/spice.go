// SPICE-subset reader and writer. The toolkit's native interchange format
// is the universally understood SPICE deck: .subckt/.ends hierarchy,
// M/C/R/X elements, and name=value device parameters. Only the structural
// subset the verification tools need is supported — no analyses, models
// or simulation cards.
package netlist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/process"
)

// ParseError describes a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("spice: line %d: %s", e.Line, e.Msg)
}

// Parse reads a SPICE-subset deck and returns a library of the
// subcircuits it defines plus a top-level circuit holding any elements
// outside .subckt blocks (named "top"). Supported cards:
//
//	.subckt NAME port...  /  .ends
//	Mname drain gate source bulk {nmos|pmos} w=.. l=.. [extral=..] [vt={svt|lvt|hvt}]
//	Cname node node value          (farads with suffixes, or fF with "f" ambiguity resolved as femto)
//	Rname node node value
//	Xname node... CELLNAME
//	*attr node key=value           (node attribute annotation comment)
//
// Continuation lines start with "+". Comments start with "*" or ";"
// (except the *attr form). Names are case-preserved except supplies.
func Parse(r io.Reader) (*Library, *Circuit, error) {
	return ParseNamed(r, "")
}

// ParseFile parses a deck from disk. Elements record the path and line
// they came from, so downstream diagnostics (lint, Validate) can point
// back into the deck.
func ParseFile(path string) (*Library, *Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ParseNamed(f, path)
}

// ParseNamed is Parse with a source name recorded on every element's Loc
// (pass "" for an anonymous deck; line numbers are still recorded).
//
// The deck is read in one pass. Continuation lines are joined into one
// reused buffer and each logical line becomes one string, so every name
// parsed from it is a substring of its own line and never pins the rest
// of the deck.
func ParseNamed(r io.Reader, srcName string) (*Library, *Circuit, error) {
	p := deckParser{lib: NewLibrary(), top: New("top"), src: srcName}
	p.cur = p.top

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		line   []byte // the logical line being joined
		first  int    // the physical line it started on
		lineNo int
		err    error // first parse error; reading goes on, since a read error wins
	)
	for sc.Scan() {
		lineNo++
		if err != nil {
			continue
		}
		b := sc.Bytes()
		if len(b) > 0 && b[0] == '+' && lineNo > 1 {
			line = append(append(line, ' '), bytes.TrimSpace(b[1:])...)
			continue
		}
		if lineNo > 1 {
			err = p.line(line, first)
		}
		n := len(b)
		for n > 0 && (b[n-1] == ' ' || b[n-1] == '\t' || b[n-1] == '\r') {
			n--
		}
		line = append(line[:0], b[:n]...)
		first = lineNo
	}
	if rerr := sc.Err(); rerr != nil {
		return nil, nil, fmt.Errorf("spice: read: %w", rerr)
	}
	if err == nil && lineNo > 0 {
		err = p.line(line, first)
	}
	if err == nil && p.inSub {
		err = &ParseError{lineNo, "missing .ends"}
	}
	if err != nil {
		return nil, nil, err
	}
	return p.lib, p.top, nil
}

// deckParser is ParseNamed's state between logical lines.
type deckParser struct {
	lib      *Library
	top, cur *Circuit
	src      string
	inSub    bool
	fields   []string // reused by split
}

// line parses one logical line that starts on physical line no.
func (p *deckParser) line(b []byte, no int) error {
	b = bytes.TrimSpace(b)
	if len(b) == 0 {
		return nil
	}
	switch b[0] {
	case '*':
		if len(b) >= 6 && b[1]|0x20 == 'a' && b[2]|0x20 == 't' && b[3]|0x20 == 't' && b[4]|0x20 == 'r' && b[5] == ' ' {
			if err := parseAttr(p.cur, p.split(string(b[6:]))); err != nil {
				return &ParseError{no, err.Error()}
			}
		}
		return nil
	case ';':
		return nil
	case '.':
		return p.card(string(b), no)
	}
	if err := parseElement(p.cur, p.split(string(b)), Loc{File: p.src, Line: no}); err != nil {
		return &ParseError{no, err.Error()}
	}
	return nil
}

// card handles the dot cards, matched on their lowercased prefix.
func (p *deckParser) card(line string, no int) error {
	lower := strings.ToLower(line)
	fields := p.split(line)
	switch {
	case lower == ".end":
		// done
	case strings.HasPrefix(lower, ".subckt"):
		if p.inSub {
			return &ParseError{no, "nested .subckt not supported"}
		}
		if len(fields) < 2 {
			return &ParseError{no, ".subckt needs a name"}
		}
		p.cur = New(fields[1])
		p.cur.Loc = Loc{File: p.src, Line: no}
		for _, port := range fields[2:] {
			p.cur.DeclarePort(port)
		}
		p.inSub = true
	case strings.HasPrefix(lower, ".ends"):
		if !p.inSub {
			return &ParseError{no, ".ends without .subckt"}
		}
		p.lib.Add(p.cur)
		p.cur = p.top
		p.inSub = false
	case strings.HasPrefix(lower, ".global"), strings.HasPrefix(lower, ".option"):
		// Accepted and ignored: supplies are already global.
	default:
		return &ParseError{no, fmt.Sprintf("unsupported card %q", fields[0])}
	}
	return nil
}

// Byte classes for split: a field byte is 0.
const (
	classSpace    = 1 + iota // the ASCII whitespace strings.Fields splits on
	classNonASCII            // any byte of a multi-byte or invalid rune
)

var byteClass = func() (t [256]uint8) {
	for _, c := range "\t\n\v\f\r " {
		t[c] = classSpace
	}
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = classNonASCII
	}
	return t
}()

// split returns s's whitespace-separated fields in the reused p.fields,
// valid until the next call. A line holding any non-ASCII byte goes to
// strings.Fields, so Unicode whitespace splits exactly as it always has.
func (p *deckParser) split(s string) []string {
	f := p.fields[:0]
	for i := 0; i < len(s); {
		for i < len(s) && byteClass[s[i]] == classSpace {
			i++
		}
		start := i
		for i < len(s) && byteClass[s[i]] == 0 {
			i++
		}
		if i < len(s) && byteClass[s[i]] == classNonASCII {
			return strings.Fields(s)
		}
		if start < i {
			f = append(f, s[start:i])
		}
	}
	p.fields = f
	return f
}

// parseAttr handles the fields after "*attr ": node key[=value]...
func parseAttr(c *Circuit, fields []string) error {
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

// parseElement dispatches one element card to its handler. None of them
// keeps fields, which split reuses.
func parseElement(c *Circuit, fields []string, loc Loc) error {
	name := fields[0]
	switch name[0] | 0x20 {
	case 'm':
		return parseMOS(c, fields, loc)
	case 'c':
		if len(fields) != 4 {
			return fmt.Errorf("capacitor %s: want C name a b value", name)
		}
		v, exp, err := parseScaled(fields[3])
		if err != nil {
			return fmt.Errorf("capacitor %s: %v", name, err)
		}
		// Scale by the suffix's power of ten relative to femto, so 10f
		// is exactly 10 fF and survives Write→Parse unchanged.
		fF := scale10(v, exp+15)
		if !(fF >= 0) || math.IsInf(fF, 0) {
			return fmt.Errorf("capacitor %s: value %s is negative or not finite", name, fields[3])
		}
		// Store as grounded cap on the non-supply end; if both ends
		// are signals, split evenly (coupling belongs to parasitics).
		a, b := fields[1], fields[2]
		switch {
		case isSupplyName(a) && isSupplyName(b):
			// decoupling cap: no signal load
		case isSupplyName(b):
			addLoad(c, a, fF)
		case isSupplyName(a):
			addLoad(c, b, fF)
		default:
			addLoad(c, a, fF/2)
			addLoad(c, b, fF/2)
		}
		return nil
	case 'r':
		if len(fields) != 4 {
			return fmt.Errorf("resistor %s: want R name a b value", name)
		}
		v, err := parseValue(fields[3])
		if err != nil {
			return fmt.Errorf("resistor %s: %v", name, err)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return fmt.Errorf("resistor %s: value %s is not finite", name, fields[3])
		}
		c.AddResistor(name, fields[1], fields[2], v).Loc = loc
		return nil
	case 'x':
		if len(fields) < 3 {
			return fmt.Errorf("instance %s: want X name node... cell", name)
		}
		cell := fields[len(fields)-1]
		c.AddInstance(name, cell, fields[1:len(fields)-1]...).Loc = loc
		return nil
	}
	return fmt.Errorf("unknown element %q", name)
}

// parseMOS handles "Mname d g s b type params".
func parseMOS(c *Circuit, fields []string, loc Loc) error {
	if len(fields) < 6 {
		return fmt.Errorf("device %s: want M name d g s b model params", fields[0])
	}
	var dt process.DeviceType
	switch fields[5][0] | 0x20 {
	case 'n':
		dt = process.NMOS
	case 'p':
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
			val, err := parseValue(v)
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

// suffixes maps SPICE magnitude suffixes to powers of ten.
var suffixes = []struct {
	s   string
	exp int
}{
	{"meg", 6},
	{"t", 12}, {"g", 9}, {"k", 3},
	{"m", -3}, {"u", -6}, {"n", -9}, {"p", -12}, {"f", -15}, {"a", -18},
}

// parseValue parses a SPICE numeric value with optional magnitude suffix.
func parseValue(s string) (float64, error) {
	v, exp, err := parseScaled(s)
	return v * math.Pow10(exp), err
}

// parseScaled splits a SPICE numeric value into its number and the power
// of ten its magnitude suffix stands for.
func parseScaled(s string) (float64, int, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	exp := 0
	// No suffix ends in a digit or '.', so plain numbers skip the search.
	if n := len(s); n > 0 && (s[n-1] < '0' || s[n-1] > '9') && s[n-1] != '.' {
		for _, suf := range suffixes {
			if strings.HasSuffix(s, suf.s) {
				exp = suf.exp
				s = s[:n-len(suf.s)]
				break
			}
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad numeric value %q", s)
	}
	return v, exp, nil
}

// scale10 returns v·10^e. A negative e divides by the exact 10^-e, so a
// decimal value lands on its nearest float.
func scale10(v float64, e int) float64 {
	if e < 0 {
		return v / math.Pow10(-e)
	}
	return v * math.Pow10(e)
}

// isSupplyName reports whether a deck node name denotes a supply rail.
func isSupplyName(name string) bool {
	name = canonName(name)
	return name == VddName || name == VssName
}

// addLoad adds a C card's load to a node. Write emits every node's load
// as one capacitor to vss, so a card creates only what that form reads
// back: the loaded node and vss, and nothing for a zero load.
func addLoad(c *Circuit, name string, fF float64) {
	if fF > 0 {
		c.Nodes[c.Node(name)].CapFF += fF
		c.Node(VssName)
	}
}

// writeChunk is the buffered size at which Write hands its bytes to w,
// so memory stays bounded however large the deck.
const writeChunk = 32 << 10

// Write emits the library and top circuit as a SPICE-subset deck that
// Parse round-trips. Cells are emitted in sorted order for stable diffs.
// It returns the first error from w.
func Write(w io.Writer, lib *Library, top *Circuit) error {
	dw := deckWriter{w: w, b: make([]byte, 0, writeChunk+4<<10)}
	dw.b = append(append(append(dw.b, "* "...), top.Name...), " — full-custom toolkit netlist\n"...)
	if lib != nil {
		for _, name := range lib.Cells() {
			dw.circuit(lib.Cell(name), true)
		}
	}
	dw.circuit(top, false)
	dw.b = append(dw.b, ".end\n"...)
	dw.flush()
	return dw.err
}

// deckWriter appends a deck's lines to b and writes b to w in chunks.
type deckWriter struct {
	w    io.Writer
	b    []byte
	err  error    // first write error; later chunks are dropped
	keys []string // reused for sorting attribute keys
}

// endLine terminates the line just appended and flushes a full chunk.
func (dw *deckWriter) endLine() {
	dw.b = append(dw.b, '\n')
	if len(dw.b) >= writeChunk {
		dw.flush()
	}
}

// flush writes the buffered bytes to w unless an earlier write failed.
func (dw *deckWriter) flush() {
	if dw.err == nil && len(dw.b) > 0 {
		n, err := dw.w.Write(dw.b)
		if err == nil && n < len(dw.b) {
			err = io.ErrShortWrite
		}
		dw.err = err
	}
	dw.b = dw.b[:0]
}

// appendName appends name carrying the element-letter prefix the parser
// dispatches on, prepending it when the stored name lacks one. Names
// from parsed decks already start with the right letter and pass
// through untouched; programmatically built circuits (u0_n, inv3, ...)
// get the prefix so Write's round-trip contract holds for them too.
func appendName(b []byte, name string, prefix byte) []byte {
	if name == "" || name[0]|0x20 != prefix {
		b = append(b, prefix)
	}
	return append(b, name...)
}

// appendNodes appends the nodes' names separated by spaces.
func appendNodes(b []byte, c *Circuit, ids []NodeID) []byte {
	for i, id := range ids {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, c.NodeName(id)...)
	}
	return b
}

// circuit emits one circuit, optionally wrapped in .subckt/.ends.
func (dw *deckWriter) circuit(c *Circuit, asSubckt bool) {
	if asSubckt {
		dw.b = appendNodes(append(append(append(dw.b, ".subckt "...), c.Name...), ' '), c, c.Ports)
		dw.endLine()
	}
	for _, d := range c.Devices {
		b := append(appendName(dw.b, d.Name, 'm'), ' ')
		b = appendNodes(b, c, []NodeID{d.Drain, d.Gate, d.Source, d.Bulk})
		b = append(append(b, ' '), d.Type.String()...)
		b = strconv.AppendFloat(append(b, " w="...), d.W, 'g', -1, 64)
		b = strconv.AppendFloat(append(b, " l="...), d.L, 'g', -1, 64)
		if d.ExtraL > 0 {
			b = strconv.AppendFloat(append(b, " extral="...), d.ExtraL, 'g', -1, 64)
		}
		if d.Vt != process.StandardVt {
			b = append(append(b, " vt="...), d.Vt.String()...)
		}
		dw.b = b
		dw.endLine()
	}
	for _, r := range c.Resistors {
		b := append(appendName(dw.b, r.Name, 'r'), ' ')
		b = appendNodes(b, c, []NodeID{r.A, r.B})
		dw.b = strconv.AppendFloat(append(b, ' '), r.Ohms, 'g', -1, 64)
		dw.endLine()
	}
	ci := int64(0)
	for _, n := range c.Nodes {
		if n.CapFF > 0 {
			ci++
			b := strconv.AppendInt(append(dw.b, "cw"...), ci, 10)
			b = append(append(append(b, ' '), n.Name...), " "+VssName+" "...)
			dw.b = append(strconv.AppendFloat(b, n.CapFF, 'g', -1, 64), 'f')
			dw.endLine()
		}
	}
	for _, inst := range c.Instances {
		b := appendNodes(append(appendName(dw.b, inst.Name, 'x'), ' '), c, inst.Conns)
		dw.b = append(append(b, ' '), inst.Cell...)
		dw.endLine()
	}
	// Attribute annotations last, sorted for stability.
	for _, n := range c.Nodes {
		if len(n.Attrs) == 0 {
			continue
		}
		keys := dw.keys[:0]
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			b := append(append(append(dw.b, "*attr "...), n.Name...), ' ')
			b = append(b, k...)
			if v := n.Attrs[k]; v != "" {
				b = append(append(b, '='), v...)
			}
			dw.b = b
			dw.endLine()
		}
		dw.keys = keys
	}
	if asSubckt {
		dw.b = append(dw.b, ".ends"...)
		dw.endLine()
	}
}
