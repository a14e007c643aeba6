package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/netlist"
	"repro/internal/process"
	"repro/internal/recognize"
)

// rule is the concrete Rule implementation: metadata plus a check body.
// A nil check is a library-level rule (run by LintLibrary, not per cell).
type rule struct {
	id    string
	sev   Severity
	title string
	check func(*rule, *Context)
}

func (r *rule) ID() string         { return r.id }
func (r *rule) Severity() Severity { return r.sev }
func (r *rule) Title() string      { return r.title }

func (r *rule) Check(ctx *Context) {
	if r.check != nil {
		r.check(r, ctx)
	}
}

// emit reports a finding at the rule's default severity.
func (r *rule) emit(ctx *Context, subject string, loc netlist.Loc, format string, args ...any) {
	r.emitSev(ctx, r.sev, subject, loc, format, args...)
}

// emitSev reports a finding at an explicit severity.
func (r *rule) emitSev(ctx *Context, sev Severity, subject string, loc netlist.Loc, format string, args ...any) {
	ctx.Report(Diag{
		Rule:     r.id,
		Severity: sev,
		Subject:  subject,
		Loc:      loc,
		Message:  fmt.Sprintf(format, args...),
	})
}

// The registry. IDs are stable: rules are never renumbered, only added.
// UnusedCellRuleID is checked by LintLibrary because it needs the whole
// library; its entry here carries the metadata (and a no-op body) so
// rule tables and SARIF descriptors stay complete.
const UnusedCellRuleID = "FCV008"

// DefaultRules returns the full rule set in ID order.
func DefaultRules() []Rule {
	return []Rule{
		&rule{"FCV001", Error, "floating gate: a device gate net with no driver of any kind", checkFloatingGate},
		&rule{"FCV002", Error, "undrivable node: no DC path to a rail or port (non-restoring output)", checkNoDCPath},
		&rule{"FCV003", Error, "always-on VDD→VSS sneak path (static short through permanently conducting devices)", checkSneakPath},
		&rule{"FCV004", Warn, "dangling device terminal: a source/drain node connected to nothing else", checkDangling},
		&rule{"FCV005", Warn, "dynamic node without a keeper (charge leaks away during evaluate)", checkKeeperless},
		&rule{"FCV006", Warn, "gate driven only by a single-polarity pass-transistor network (threshold drop)", checkPassOnlyGate},
		&rule{"FCV007", Warn, "zero or absurd device geometry (W, L or W/L outside sanity bounds)", checkGeometry},
		&rule{UnusedCellRuleID, Info, "unused cell: defined in the library but unreachable from the top", nil},
		&rule{"FCV009", Warn, "shadowed interface name: case-colliding node names or a port connected to nothing", checkShadowedNames},
		&rule{"FCV010", Warn, "fanout ceiling: one node drives more gates than the configured limit", checkFanout},
		&rule{"FCV011", Error, "clocked-stage discipline: no phase enables both pull-up and pull-down (C²MOS polarity miswire)", checkClockedStageDiscipline},
		&rule{"FCV012", Error, "NORA/domino discipline: dynamic node directly gates a same-phase dynamic evaluate device", checkNoraDiscipline},
		&rule{"FCV013", Error, "same-phase latch race: data crosses two transparent latches in one phase", checkLatchRace},
		&rule{"FCV014", Error, "phase-reachable drive fight: VDD and VSS drive one node under some phase assignment", checkPhaseFight},
		&rule{"FCV015", Warn, "charge-sharing exposure: keeperless dynamic node with internal evaluate nodes", checkChargeSharing},
		&rule{"FCV016", Warn, "ratioed strength: switched network does not overpower the always-on load", checkRatioedStrength},
		&rule{"FCV017", Warn, "phase-floating node: driven in some phases, floating in others, with no recognized storage", checkPhaseFloat},
		&rule{"FCV018", Error, "dead drivers: every DC path to the gate net runs through a permanently-off device", checkDeadDrivers},
	}
}

// ruleByID returns the default-registry rule with the given ID, or nil.
func ruleByID(id string) *rule {
	for _, r := range DefaultRules() {
		if r.ID() == id {
			return r.(*rule)
		}
	}
	return nil
}

// externallyDriven reports whether a node may legitimately be driven from
// outside the circuit: it is a declared port, or — in a deck with no
// declared interface at all (top-level "element soup") — any node no
// group drives. Without ports the linter cannot tell primary inputs from
// mistakes, so it assumes the charitable reading.
func (ctx *Context) externallyDriven(id netlist.NodeID) bool {
	if ctx.Circuit.Nodes[id].IsPort {
		return true
	}
	if len(ctx.Circuit.Ports) == 0 {
		_, driven := ctx.Rec.DriverOf[id]
		return !driven
	}
	return false
}

// ---------------------------------------------------------------- FCV001

// checkFloatingGate flags gate nets with no conceivable driver: not a
// port, not a supply, never a source/drain terminal, touching no
// resistor. Such a device's channel state is undefined forever. Skipped
// entirely for circuits that declare no ports — there every undriven net
// could be a primary input.
func checkFloatingGate(r *rule, ctx *Context) {
	c := ctx.Circuit
	if len(c.Ports) == 0 {
		return
	}
	for _, id := range ctx.gateNets() {
		if c.IsSupply(id) || c.Nodes[id].IsPort {
			continue
		}
		if len(ctx.adj.Channel(id)) > 0 || len(ctx.adj.Resistors(id)) > 0 {
			continue
		}
		readers := ctx.adj.Gated(id)
		names := deviceNames(readers, 3)
		r.emit(ctx, c.NodeName(id), readers[0].Loc,
			"gate net %s is driven by nothing but gates %s", c.NodeName(id), names)
	}
}

// deviceNames renders up to max device names for a message.
func deviceNames(devs []*netlist.Device, max int) string {
	var parts []string
	for i, d := range devs {
		if i == max {
			parts = append(parts, fmt.Sprintf("… (%d total)", len(devs)))
			break
		}
		parts = append(parts, d.Name)
	}
	return strings.Join(parts, ", ")
}

// ---------------------------------------------------------------- FCV002

// checkNoDCPath flags nodes that carry meaning — they drive gates — but
// have no DC path through any combination of device channels or
// resistors to a supply rail or an externally driven node. No input
// assignment can ever set their level; downstream logic reads noise.
func checkNoDCPath(r *rule, ctx *Context) {
	c := ctx.Circuit
	for _, id := range ctx.gateNets() {
		if c.IsSupply(id) || c.Nodes[id].IsPort || len(ctx.adj.Channel(id)) == 0 {
			continue
		}
		if ctx.reachesDrive(id, nil) {
			continue
		}
		r.emit(ctx, c.NodeName(id), ctx.nodeLoc(id),
			"node %s drives gates but has no DC path to any rail or port", c.NodeName(id))
	}
}

// ---------------------------------------------------------------- FCV003

// checkSneakPath finds DC paths between VDD and VSS that conduct under
// every input: chains of permanently-on devices (NMOS gated by vdd, PMOS
// gated by vss) and resistors. Such a path burns static current forever
// and usually means a miswired gate terminal.
func checkSneakPath(r *rule, ctx *Context) {
	c := ctx.Circuit
	alwaysOn := func(d *netlist.Device) bool {
		switch d.Type {
		case process.NMOS:
			return c.IsVdd(d.Gate)
		case process.PMOS:
			return c.IsVss(d.Gate)
		}
		return false
	}
	// Adjacency over always-conducting elements only.
	adj := make(map[netlist.NodeID][]netlist.NodeID)
	addEdge := func(a, b netlist.NodeID) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for _, d := range c.Devices {
		if alwaysOn(d) {
			addEdge(d.Source, d.Drain)
		}
	}
	for _, res := range c.Resistors {
		addEdge(res.A, res.B)
	}
	vdd, vss := c.FindNode(netlist.VddName), c.FindNode(netlist.VssName)
	if vdd == netlist.InvalidNode || vss == netlist.InvalidNode {
		return
	}
	// fromVdd: nodes connected to vdd through the always-on graph
	// (stopping at vss); toVss symmetric.
	reach := func(start, stop netlist.NodeID) map[netlist.NodeID]bool {
		seen := map[netlist.NodeID]bool{start: true}
		queue := []netlist.NodeID{start}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					if v != stop {
						queue = append(queue, v)
					}
				}
			}
		}
		return seen
	}
	fromVdd := reach(vdd, vss)
	toVss := reach(vss, vdd)
	onPath := func(a, b netlist.NodeID) bool {
		return (fromVdd[a] && toVss[b]) || (fromVdd[b] && toVss[a])
	}
	for _, d := range c.Devices {
		if alwaysOn(d) && onPath(d.Source, d.Drain) {
			r.emit(ctx, d.Name, d.Loc,
				"device %s is permanently on and lies on a VDD→VSS sneak path", d.Name)
		}
	}
	for _, res := range c.Resistors {
		if onPath(res.A, res.B) {
			r.emit(ctx, res.Name, res.Loc,
				"resistor %s lies on an always-conducting VDD→VSS sneak path", res.Name)
		}
	}
}

// ---------------------------------------------------------------- FCV004

// checkDangling flags nodes referenced by exactly one source/drain
// terminal and by nothing else — an unconnected diffusion, usually a
// typo in a net name.
func checkDangling(r *rule, ctx *Context) {
	c := ctx.Circuit
	for id, n := range c.Nodes {
		nid := netlist.NodeID(id)
		if c.IsSupply(nid) || n.IsPort || n.CapFF > 0 {
			continue
		}
		// Exactly one terminal: one device, not shorted across itself.
		ch := ctx.adj.Channel(nid)
		if len(ch) != 1 || ch[0].Source == ch[0].Drain ||
			len(ctx.adj.Gated(nid)) > 0 || len(ctx.adj.Resistors(nid)) > 0 {
			continue
		}
		r.emit(ctx, n.Name, ctx.nodeLoc(nid),
			"node %s is touched by a single device terminal and nothing else", n.Name)
	}
}

// ---------------------------------------------------------------- FCV005

// checkKeeperless flags recognized dynamic (precharge/evaluate) nodes
// without a keeper (recognize.Result.Keeper). Without one, the §4.2
// leakage and charge-sharing hazards have nothing holding the node
// through the evaluate window.
func checkKeeperless(r *rule, ctx *Context) {
	c := ctx.Circuit
	for _, g := range ctx.Rec.Groups {
		if g.Family != recognize.FamilyDynamic {
			continue
		}
		for _, f := range g.Funcs {
			if !ctx.Rec.IsDynamic(f.Node) {
				continue
			}
			if ctx.Rec.Keeper(f.Node) != nil {
				continue
			}
			r.emit(ctx, c.NodeName(f.Node), ctx.nodeLoc(f.Node),
				"dynamic node %s has no keeper holding it through evaluate", c.NodeName(f.Node))
		}
	}
}

// ---------------------------------------------------------------- FCV006

// checkPassOnlyGate flags gate nets whose driver group never touches a
// rail and steers with a single device polarity: an NMOS-only network
// passes a degraded high (Vdd−Vt), a PMOS-only network a degraded low —
// the receiving gate sees a reduced noise margin and possible static
// current. Full transmission gates (both polarities) pass.
func checkPassOnlyGate(r *rule, ctx *Context) {
	c := ctx.Circuit
	for _, id := range ctx.gateNets() {
		gi, ok := ctx.Rec.DriverOf[id]
		if !ok {
			continue
		}
		g := ctx.Rec.Groups[gi]
		touchesRail, nmos, pmos := false, 0, 0
		for _, d := range g.Devices {
			if c.IsSupply(d.Source) || c.IsSupply(d.Drain) {
				touchesRail = true
				break
			}
			if d.Type == process.NMOS {
				nmos++
			} else {
				pmos++
			}
		}
		if touchesRail || (nmos > 0 && pmos > 0) {
			continue
		}
		pol := "NMOS"
		if pmos > 0 {
			pol = "PMOS"
		}
		r.emit(ctx, c.NodeName(id), ctx.nodeLoc(id),
			"gate net %s is driven only through a %s-only pass network (threshold drop)", c.NodeName(id), pol)
	}
}

// ---------------------------------------------------------------- FCV007

// checkGeometry flags device sizes no real transistor has: non-positive
// W/L (error — the device model is meaningless) and aspect ratios or
// absolute dimensions outside the fixed sanity window (warn —
// almost always a unit mistake, metres vs microns).
func checkGeometry(r *rule, ctx *Context) {
	for _, d := range ctx.Circuit.Devices {
		switch {
		case d.W <= 0 || d.L <= 0:
			r.emitSev(ctx, Error, d.Name, d.Loc,
				"device %s has non-positive geometry W=%g L=%g", d.Name, d.W, d.L)
		case d.W/d.Leff() > maxWL:
			r.emit(ctx, d.Name, d.Loc,
				"device %s aspect ratio W/L=%.3g exceeds %.3g", d.Name, d.W/d.Leff(), maxWL)
		case d.W/d.Leff() < minWL:
			r.emit(ctx, d.Name, d.Loc,
				"device %s aspect ratio W/L=%.3g is below %.3g", d.Name, d.W/d.Leff(), minWL)
		case d.W > maxWUm:
			r.emit(ctx, d.Name, d.Loc,
				"device %s width %gµm exceeds %gµm", d.Name, d.W, maxWUm)
		case d.Leff() > maxLUm:
			r.emit(ctx, d.Name, d.Loc,
				"device %s channel length %gµm exceeds %gµm", d.Name, d.Leff(), maxLUm)
		}
	}
}

// ---------------------------------------------------------------- FCV009

// checkShadowedNames flags interface hygiene problems: two distinct
// nodes whose names differ only by letter case (the reader writes names
// case-sensitively, so "Out" and "out" are different electrical nets —
// almost always a shadowing typo), and declared ports connected to
// nothing at all.
func checkShadowedNames(r *rule, ctx *Context) {
	c := ctx.Circuit
	byFold := make(map[string]netlist.NodeID)
	ids := make([]netlist.NodeID, 0, len(c.Nodes))
	for id := range c.Nodes {
		ids = append(ids, netlist.NodeID(id))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		name := c.NodeName(id)
		fold := strings.ToLower(name)
		if first, ok := byFold[fold]; ok {
			r.emit(ctx, name, ctx.nodeLoc(id),
				"node %s shadows node %s (names differ only by case)", name, c.NodeName(first))
			continue
		}
		byFold[fold] = id
	}
	for _, p := range c.Ports {
		if len(ctx.adj.Channel(p)) == 0 && len(ctx.adj.Gated(p)) == 0 &&
			len(ctx.adj.Resistors(p)) == 0 && c.Nodes[p].CapFF == 0 {
			r.emit(ctx, c.NodeName(p), c.Loc,
				"port %s is declared but connected to nothing", c.NodeName(p))
		}
	}
}

// ---------------------------------------------------------------- FCV010

// checkFanout flags nodes driving more gates than the configured
// ceiling. A real net this wide needs buffering; in a deck it is usually
// a merge accident (two nets that should have been distinct).
func checkFanout(r *rule, ctx *Context) {
	c := ctx.Circuit
	limit := ctx.Opt.fanoutLimit()
	for _, id := range ctx.gateNets() {
		readers := ctx.adj.Gated(id)
		if c.IsSupply(id) || len(readers) <= limit {
			continue
		}
		r.emit(ctx, c.NodeName(id), ctx.nodeLoc(id),
			"node %s drives %d gates (limit %d)", c.NodeName(id), len(readers), limit)
	}
}
