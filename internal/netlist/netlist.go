// Package netlist provides the transistor-level design representation for
// the full-custom toolkit.
//
// The paper's methodology (§2) is explicit that "transistors are the
// building elements. Other building elements (cells) are nice but not
// required. Every transistor in the design can be (and often is)
// individually sized, regardless of its functional context." This package
// therefore models circuits as bags of individually-sized MOS devices
// connected at named nodes, with optional hierarchy (subcircuit instances)
// that can be flattened at will — hierarchy is a convenience, never a
// semantic boundary (§2.1).
//
// Passive elements (R and C) are included so extracted parasitics can be
// carried in the same representation the verification tools consume.
package netlist

import (
	"fmt"
	"sort"

	"repro/internal/process"
)

// Special node names recognized as supplies. Comparison is
// case-insensitive; "gnd" is an alias for "vss".
const (
	VddName = "vdd"
	VssName = "vss"
)

// Loc is a position in a source deck: the file and line an element was
// parsed from. The zero Loc means "no source information" (circuits built
// programmatically). Locations survive flattening so every diagnostic a
// downstream tool emits — lint findings, Validate errors — can point at
// the offending deck line.
type Loc struct {
	// File is the deck path as given to the parser ("" when unknown).
	File string
	// Line is the 1-based line number (0 when unknown).
	Line int
}

// IsZero reports whether the location carries no information.
func (l Loc) IsZero() bool { return l.File == "" && l.Line == 0 }

// String renders "file:line", "line N" without a file, or "".
func (l Loc) String() string {
	switch {
	case l.IsZero():
		return ""
	case l.File == "":
		return fmt.Sprintf("line %d", l.Line)
	default:
		return fmt.Sprintf("%s:%d", l.File, l.Line)
	}
}

// locSuffix renders a location as a parenthesized error-message suffix.
func locSuffix(l Loc) string {
	if l.IsZero() {
		return ""
	}
	return " (" + l.String() + ")"
}

// NodeID indexes a node within one Circuit.
type NodeID int

// InvalidNode is returned by lookups that fail.
const InvalidNode NodeID = -1

// Node is a circuit node (an electrical net).
type Node struct {
	// Name is the node's name, unique within its circuit. Flattened
	// nodes use "/"-separated hierarchical names.
	Name string
	// CapFF is fixed extra capacitance attached to the node in fF
	// (from C elements or extraction annotations).
	CapFF float64
	// IsPort reports whether the node is on the circuit's interface.
	IsPort bool
	// Attrs carries free-form designer annotations ("clock",
	// "precharge", "false_path", …) consumed by downstream tools. The
	// recognition engine works without them; they exist because §2.3
	// lets the designer assist the filter.
	Attrs map[string]string
}

// HasAttr reports whether the node carries the given attribute.
func (n *Node) HasAttr(key string) bool {
	_, ok := n.Attrs[key]
	return ok
}

// Device is a single MOS transistor with per-instance sizing.
type Device struct {
	// Name identifies the device within its circuit.
	Name string
	// Type is NMOS or PMOS.
	Type process.DeviceType
	// Vt selects the threshold flavour.
	Vt process.VtClass
	// Gate, Source, Drain and Bulk are the terminal nodes. Source and
	// Drain are interchangeable for recognition purposes (MOS devices
	// are symmetric); tools must not assume an orientation.
	Gate, Source, Drain, Bulk NodeID
	// W and L are drawn width and length in µm.
	W, L float64
	// ExtraL is additional channel length in µm beyond L, the §3
	// leakage-reduction knob ("devices … were lengthened by 0.045µm or
	// 0.09µm as part of the design process").
	ExtraL float64
	// Loc is the deck position the device was parsed from (zero when
	// built programmatically).
	Loc Loc
}

// Leff returns the effective drawn channel length W/L computations use.
func (d *Device) Leff() float64 { return d.L + d.ExtraL }

// Resistor is a two-terminal resistance element (extracted interconnect).
type Resistor struct {
	Name string
	A, B NodeID
	Ohms float64
	// Loc is the deck position the resistor was parsed from.
	Loc Loc
}

// Instance is a reference to a subcircuit.
type Instance struct {
	// Name identifies the instance within its parent.
	Name string
	// Cell is the name of the instantiated circuit, resolved through a
	// Library at flatten time.
	Cell string
	// Conns maps, positionally, the instantiated cell's ports to nodes
	// of the parent circuit.
	Conns []NodeID
	// Loc is the deck position the instance was parsed from.
	Loc Loc
}

// Circuit is one level of the design: devices, passives and instances
// over a shared set of nodes.
type Circuit struct {
	// Name is the circuit (cell) name.
	Name string
	// Loc is the deck position of the cell's .subckt card.
	Loc Loc
	// Ports lists interface nodes in declaration order.
	Ports []NodeID

	Nodes     []*Node
	Devices   []*Device
	Resistors []*Resistor
	Instances []*Instance

	index map[string]NodeID
	// vdd/vss cache the supply node IDs (InvalidNode until created), so
	// the hot kernels' IsSupply tests are integer compares instead of
	// per-call name lookups. Node() is the only node-creation path, so
	// the cache cannot go stale.
	vdd, vss NodeID
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name, index: make(map[string]NodeID), vdd: InvalidNode, vss: InvalidNode}
}

// canonName lowercases supply aliases so "GND", "gnd" and "vss" share a
// node; other names are case-sensitive as designers wrote them. An alias
// is one or three ASCII bytes, and only ASCII letters lowercase to its
// letters, so other lengths are never looked at and b|0x20 is an exact
// lowercase test.
func canonName(name string) string {
	switch len(name) {
	case 1:
		if name == "0" {
			return VssName
		}
	case 3:
		b := [3]byte{name[0] | 0x20, name[1] | 0x20, name[2] | 0x20}
		switch string(b[:]) {
		case "vdd", "vcc":
			return VddName
		case "vss", "gnd":
			return VssName
		}
	}
	return name
}

// Node returns the ID for the named node, creating it if needed.
func (c *Circuit) Node(name string) NodeID {
	name = canonName(name)
	switch {
	case name == VddName && c.vdd != InvalidNode:
		return c.vdd
	case name == VssName && c.vss != InvalidNode:
		return c.vss
	}
	if id, ok := c.index[name]; ok {
		return id
	}
	id := NodeID(len(c.Nodes))
	c.Nodes = append(c.Nodes, &Node{Name: name})
	c.index[name] = id
	switch name {
	case VddName:
		c.vdd = id
	case VssName:
		c.vss = id
	}
	return id
}

// FindNode returns the ID of an existing node, or InvalidNode.
func (c *Circuit) FindNode(name string) NodeID {
	if id, ok := c.index[canonName(name)]; ok {
		return id
	}
	return InvalidNode
}

// NodeName returns the name of a node ID (convenience for reports).
func (c *Circuit) NodeName(id NodeID) string {
	if id < 0 || int(id) >= len(c.Nodes) {
		return fmt.Sprintf("<invalid node %d>", id)
	}
	return c.Nodes[id].Name
}

// IsVdd reports whether the node is the positive supply.
func (c *Circuit) IsVdd(id NodeID) bool { return id != InvalidNode && id == c.vdd }

// IsVss reports whether the node is the ground supply.
func (c *Circuit) IsVss(id NodeID) bool { return id != InvalidNode && id == c.vss }

// IsSupply reports whether the node is either supply rail.
func (c *Circuit) IsSupply(id NodeID) bool {
	return id != InvalidNode && (id == c.vdd || id == c.vss)
}

// DeclarePort marks the named node as a port, creating it if needed, and
// returns its ID. Ports keep declaration order.
func (c *Circuit) DeclarePort(name string) NodeID {
	id := c.Node(name)
	if !c.Nodes[id].IsPort {
		c.Nodes[id].IsPort = true
		c.Ports = append(c.Ports, id)
	}
	return id
}

// SetAttr attaches an attribute to a node.
func (c *Circuit) SetAttr(id NodeID, key, value string) {
	n := c.Nodes[id]
	if n.Attrs == nil {
		n.Attrs = make(map[string]string)
	}
	n.Attrs[key] = value
}

// AddDevice appends a transistor. Terminal names create nodes on demand.
func (c *Circuit) AddDevice(name string, t process.DeviceType, gate, source, drain, bulk string, w, l float64) *Device {
	d := &Device{
		Name:   name,
		Type:   t,
		Vt:     process.StandardVt,
		Gate:   c.Node(gate),
		Source: c.Node(source),
		Drain:  c.Node(drain),
		Bulk:   c.Node(bulk),
		W:      w,
		L:      l,
	}
	c.Devices = append(c.Devices, d)
	return d
}

// NMOS adds an n-channel device with bulk tied to vss.
func (c *Circuit) NMOS(name, gate, source, drain string, w, l float64) *Device {
	return c.AddDevice(name, process.NMOS, gate, source, drain, VssName, w, l)
}

// PMOS adds a p-channel device with bulk tied to vdd.
func (c *Circuit) PMOS(name, gate, source, drain string, w, l float64) *Device {
	return c.AddDevice(name, process.PMOS, gate, source, drain, VddName, w, l)
}

// AddCap attaches capacitance (fF) to a node, creating it on demand.
// Capacitors to anything other than a supply are attached to both ends,
// approximating grounded caps; explicit coupling is the parasitics
// package's job.
func (c *Circuit) AddCap(node string, fF float64) {
	c.Nodes[c.Node(node)].CapFF += fF
}

// AddResistor appends an extracted-interconnect resistor.
func (c *Circuit) AddResistor(name, a, b string, ohms float64) *Resistor {
	r := &Resistor{Name: name, A: c.Node(a), B: c.Node(b), Ohms: ohms}
	c.Resistors = append(c.Resistors, r)
	return r
}

// AddInstance appends a subcircuit instance with positional connections.
func (c *Circuit) AddInstance(name, cell string, conns ...string) *Instance {
	ids := make([]NodeID, len(conns))
	for i, cn := range conns {
		ids[i] = c.Node(cn)
	}
	inst := &Instance{Name: name, Cell: cell, Conns: ids}
	c.Instances = append(c.Instances, inst)
	return inst
}

// DevicesOn returns the devices with a source or drain terminal on the
// node (channel-connected neighbours).
func (c *Circuit) DevicesOn(id NodeID) []*Device {
	var out []*Device
	for _, d := range c.Devices {
		if d.Source == id || d.Drain == id {
			out = append(out, d)
		}
	}
	return out
}

// GatesOn returns devices whose gate is connected to the node.
func (c *Circuit) GatesOn(id NodeID) []*Device {
	var out []*Device
	for _, d := range c.Devices {
		if d.Gate == id {
			out = append(out, d)
		}
	}
	return out
}

// TotalWidth returns the summed channel width of all devices, a standard
// area/power proxy.
func (c *Circuit) TotalWidth() float64 {
	var w float64
	for _, d := range c.Devices {
		w += d.W
	}
	return w
}

// Stats summarizes a circuit for reports.
type Stats struct {
	Name      string
	Nodes     int
	Devices   int
	NMOS      int
	PMOS      int
	Resistors int
	Instances int
	TotalW    float64
}

// Stats returns summary statistics for the circuit (local level only;
// flatten first for whole-design numbers).
func (c *Circuit) Stats() Stats {
	s := Stats{
		Name:      c.Name,
		Nodes:     len(c.Nodes),
		Devices:   len(c.Devices),
		Resistors: len(c.Resistors),
		Instances: len(c.Instances),
		TotalW:    c.TotalWidth(),
	}
	for _, d := range c.Devices {
		if d.Type == process.NMOS {
			s.NMOS++
		} else {
			s.PMOS++
		}
	}
	return s
}

// Validate checks structural sanity: terminal IDs in range, positive
// geometry, unique device names, no fully self-connected devices, ports
// marked. Errors cite the deck file:line when the element carries one.
func (c *Circuit) Validate() error {
	inRange := func(id NodeID) bool { return id >= 0 && int(id) < len(c.Nodes) }
	seen := make(map[string]bool, len(c.Devices))
	for _, d := range c.Devices {
		if d.Name == "" {
			return fmt.Errorf("netlist %s: unnamed device%s", c.Name, locSuffix(d.Loc))
		}
		if seen[d.Name] {
			return fmt.Errorf("netlist %s: duplicate device name %q%s", c.Name, d.Name, locSuffix(d.Loc))
		}
		seen[d.Name] = true
		for _, t := range []NodeID{d.Gate, d.Source, d.Drain, d.Bulk} {
			if !inRange(t) {
				return fmt.Errorf("netlist %s: device %s has out-of-range terminal %d%s", c.Name, d.Name, t, locSuffix(d.Loc))
			}
		}
		if d.Gate == d.Source && d.Gate == d.Drain {
			return fmt.Errorf("netlist %s: device %s is self-connected (gate, source and drain all on %s)%s",
				c.Name, d.Name, c.NodeName(d.Gate), locSuffix(d.Loc))
		}
		if d.W <= 0 || d.L <= 0 {
			return fmt.Errorf("netlist %s: device %s has non-positive geometry W=%g L=%g%s", c.Name, d.Name, d.W, d.L, locSuffix(d.Loc))
		}
		if d.ExtraL < 0 {
			return fmt.Errorf("netlist %s: device %s has negative ExtraL %g%s", c.Name, d.Name, d.ExtraL, locSuffix(d.Loc))
		}
	}
	for _, r := range c.Resistors {
		if !inRange(r.A) || !inRange(r.B) {
			return fmt.Errorf("netlist %s: resistor %s has out-of-range terminal%s", c.Name, r.Name, locSuffix(r.Loc))
		}
		if r.Ohms <= 0 {
			return fmt.Errorf("netlist %s: resistor %s has non-positive resistance %g%s", c.Name, r.Name, r.Ohms, locSuffix(r.Loc))
		}
	}
	for _, inst := range c.Instances {
		for _, id := range inst.Conns {
			if !inRange(id) {
				return fmt.Errorf("netlist %s: instance %s has out-of-range connection %d%s", c.Name, inst.Name, id, locSuffix(inst.Loc))
			}
		}
	}
	for _, p := range c.Ports {
		if !inRange(p) {
			return fmt.Errorf("netlist %s: port ID %d out of range", c.Name, p)
		}
		if !c.Nodes[p].IsPort {
			return fmt.Errorf("netlist %s: node %s listed as port but not marked", c.Name, c.NodeName(p))
		}
	}
	return nil
}

// Library is a named collection of circuits resolving instance references.
type Library struct {
	cells map[string]*Circuit
}

// NewLibrary returns an empty library.
func NewLibrary() *Library {
	return &Library{cells: make(map[string]*Circuit)}
}

// Add registers a circuit; it replaces any previous cell of the same name.
func (l *Library) Add(c *Circuit) {
	l.cells[c.Name] = c
}

// Cell returns the named circuit, or nil.
func (l *Library) Cell(name string) *Circuit {
	return l.cells[name]
}

// Cells returns all cell names in sorted order.
func (l *Library) Cells() []string {
	names := make([]string, 0, len(l.cells))
	for n := range l.cells {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Flatten recursively expands every instance of the circuit into a single
// flat transistor netlist. Hierarchical node names are joined with "/";
// supply nodes are global and never prefixed. The paper's hierarchy
// philosophy (§2.1) treats hierarchy as a designer convenience only —
// every verification tool in the suite runs on the flat view.
func (l *Library) Flatten(top string) (*Circuit, error) {
	root := l.Cell(top)
	if root == nil {
		return nil, fmt.Errorf("netlist: flatten: unknown cell %q", top)
	}
	flat := New(root.Name + ".flat")
	// Copy root ports first so the flat circuit keeps the interface.
	for _, p := range root.Ports {
		flat.DeclarePort(root.NodeName(p))
	}
	if err := l.flattenInto(flat, root, "", make(map[string]NodeID), map[string]bool{top: true}, nil); err != nil {
		return nil, err
	}
	return flat, nil
}

// FlattenKeep partially flattens root: instances of cells for which
// keep returns true are preserved as instances (their connections
// remapped to the flat namespace), while everything else expands
// exactly like Flatten. The result keeps root's name and port order.
// Hierarchical verification uses this to fold cells too small to be
// worth a cache entry into their parent's verification scope.
func (l *Library) FlattenKeep(root *Circuit, keep func(cell string) bool) (*Circuit, error) {
	flat := New(root.Name)
	flat.Loc = root.Loc
	for _, p := range root.Ports {
		flat.DeclarePort(root.NodeName(p))
	}
	if err := l.flattenInto(flat, root, "", make(map[string]NodeID), map[string]bool{root.Name: true}, keep); err != nil {
		return nil, err
	}
	return flat, nil
}

// flattenInto copies cell's contents into flat with the given instance
// prefix. boundary maps cell-local port names to flat node IDs; active
// tracks the instantiation path for recursion detection. Instances of
// cells for which keep returns true are copied as instances instead of
// being expanded (keep nil expands everything).
func (l *Library) flattenInto(flat, cell *Circuit, prefix string, boundary map[string]NodeID, active map[string]bool, keep func(string) bool) error {
	// localID maps a cell-local node to its flat ID.
	local := make([]NodeID, len(cell.Nodes))
	for i, n := range cell.Nodes {
		name := n.Name
		switch {
		case name == VddName || name == VssName:
			local[i] = flat.Node(name)
		default:
			if id, ok := boundary[name]; ok {
				local[i] = id
				break
			}
			full := name
			if prefix != "" {
				full = prefix + "/" + name
			}
			local[i] = flat.Node(full)
		}
		fn := flat.Nodes[local[i]]
		fn.CapFF += n.CapFF
		for k, v := range n.Attrs {
			flat.SetAttr(local[i], k, v)
		}
	}
	pfx := func(s string) string {
		if prefix == "" {
			return s
		}
		return prefix + "/" + s
	}
	for _, d := range cell.Devices {
		nd := *d
		nd.Name = pfx(d.Name)
		nd.Gate, nd.Source, nd.Drain, nd.Bulk = local[d.Gate], local[d.Source], local[d.Drain], local[d.Bulk]
		flat.Devices = append(flat.Devices, &nd)
	}
	for _, r := range cell.Resistors {
		nr := *r
		nr.Name = pfx(r.Name)
		nr.A, nr.B = local[r.A], local[r.B]
		flat.Resistors = append(flat.Resistors, &nr)
	}
	for _, inst := range cell.Instances {
		if keep != nil && keep(inst.Cell) {
			conns := make([]string, len(inst.Conns))
			for i, n := range inst.Conns {
				conns[i] = flat.NodeName(local[n])
			}
			ni := flat.AddInstance(pfx(inst.Name), inst.Cell, conns...)
			ni.Loc = inst.Loc
			continue
		}
		child := l.Cell(inst.Cell)
		if child == nil {
			return fmt.Errorf("netlist: flatten: %s instantiates unknown cell %q", cell.Name, inst.Cell)
		}
		if active[inst.Cell] {
			return fmt.Errorf("netlist: flatten: recursive instantiation of %q via %s", inst.Cell, pfx(inst.Name))
		}
		if len(inst.Conns) != len(child.Ports) {
			return fmt.Errorf("netlist: flatten: instance %s of %s connects %d nodes to %d ports",
				pfx(inst.Name), inst.Cell, len(inst.Conns), len(child.Ports))
		}
		childBoundary := make(map[string]NodeID, len(child.Ports))
		for i, p := range child.Ports {
			childBoundary[child.NodeName(p)] = local[inst.Conns[i]]
		}
		active[inst.Cell] = true
		if err := l.flattenInto(flat, child, pfx(inst.Name), childBoundary, active, keep); err != nil {
			return err
		}
		delete(active, inst.Cell)
	}
	return nil
}
