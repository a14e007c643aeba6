package checks

import (
	"strings"

	"repro/internal/netlist"
	"repro/internal/obs"
)

// evidenceBound caps the devices/nets lists attached to a finding so
// evidence on a huge bus node stays readable (and the manifest bounded).
const evidenceBound = 8

// sigSubject maps a finding subject to the handle the signature layer
// hashes. Most subjects are node or device names already; composite
// subjects like "latch#0(q)" embed a representative node in parens —
// signing that node instead of the composite string keeps the ID
// rename-invariant.
func sigSubject(c *netlist.Circuit, subject string) string {
	if c.FindNode(subject) != netlist.InvalidNode {
		return subject
	}
	if o := strings.IndexByte(subject, '('); o >= 0 {
		if e := strings.IndexByte(subject[o:], ')'); e > 1 {
			inner := subject[o+1 : o+e]
			if c.FindNode(inner) != netlist.InvalidNode {
				return inner
			}
		}
	}
	return subject
}

// evidence derives a finding's generic evidence block from name, the
// subject sigSubject resolved: the devices and nets around it plus the
// recognized topology context. Checks report a normalized margin, so
// Measured is the margin against a 0 threshold.
func (sh *shared) evidence(name string, margin float64) obs.Evidence {
	rec, c := sh.rec, sh.rec.Circuit
	ev := obs.Evidence{Measured: margin, Threshold: 0, Unit: "margin"}
	if id := c.FindNode(name); id != netlist.InvalidNode {
		ev.Nets = append(ev.Nets, c.NodeName(id))
		for _, d := range sh.adj.Channel(id) {
			if len(ev.Devices) >= evidenceBound {
				break
			}
			ev.Devices = append(ev.Devices, d.Name)
		}
		var ctx []string
		if g := rec.GroupDriving(id); g != nil {
			ctx = append(ctx, "driven by "+g.Family.String()+" group")
		}
		if rec.IsClock(id) {
			ctx = append(ctx, "clock net")
		}
		if rec.IsDynamic(id) {
			ctx = append(ctx, "dynamic node")
		}
		if rec.IsState(id) {
			ctx = append(ctx, "state node")
		}
		ev.Context = strings.Join(ctx, ", ")
		return ev
	}
	i, ok := sh.sigs.DeviceIndex(name)
	if !ok {
		return ev
	}
	d := c.Devices[i]
	ev.Devices = append(ev.Devices, d.Name)
	for _, t := range []netlist.NodeID{d.Gate, d.Source, d.Drain} {
		if len(ev.Nets) >= evidenceBound {
			break
		}
		ev.Nets = append(ev.Nets, c.NodeName(t))
	}
	if i < len(rec.GroupOfDevice) {
		if gi := rec.GroupOfDevice[i]; gi >= 0 && gi < len(rec.Groups) {
			ev.Context = rec.Groups[gi].Family.String() + " group device"
		}
	}
	return ev
}
