package checks

import (
	"strings"

	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/recognize"
)

// evidenceBound caps the devices/nets lists attached to a finding so
// evidence on a huge bus node stays readable (and the manifest bounded).
const evidenceBound = 8

// attachProvenance fills each finding's stable ID and evidence block in
// one pass over the battery output. IDs come from the circuit's
// structural signatures, so they survive node/device renames and deck
// reordering; findings on structurally symmetric subjects (which share
// a signature by construction) are disambiguated with "#n" suffixes in
// battery order, keeping the ID multiset itself rename-invariant.
func attachProvenance(fs []Finding, rec *recognize.Result, sigs *netlist.Signatures, adj *netlist.Adjacency) {
	if len(fs) == 0 {
		return
	}
	ids := make([]string, len(fs))
	for i := range fs {
		f := &fs[i]
		ids[i] = sigs.FindingID("check", f.Check, sigSubject(rec.Circuit, f.Subject))
		f.Evidence = buildEvidence(rec, sigs, adj, f)
	}
	netlist.DisambiguateIDs(ids)
	for i := range fs {
		fs[i].ID = ids[i]
	}
}

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

// buildEvidence derives the generic evidence block: the devices and
// nets around the subject plus the recognized topology context. Checks
// report a normalized margin, so Measured is the margin against a 0
// threshold.
func buildEvidence(rec *recognize.Result, sigs *netlist.Signatures, adj *netlist.Adjacency, f *Finding) obs.Evidence {
	c := rec.Circuit
	ev := obs.Evidence{Measured: f.Margin, Threshold: 0, Unit: "margin"}
	name := sigSubject(c, f.Subject)
	if id := c.FindNode(name); id != netlist.InvalidNode {
		ev.Nets = append(ev.Nets, c.NodeName(id))
		for _, d := range adj.Channel(id) {
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
	i, ok := sigs.DeviceIndex(name)
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
