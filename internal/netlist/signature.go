// Structural signatures: per-object canonical labels for finding
// provenance.
//
// The fleet's fingerprint answers "is this the same circuit?"; the
// verification findings need the finer question "is this the same
// *place* in the circuit?" — so a finding reported on a node or device
// can keep a stable identity across runs, node renames and deck
// reordering, and `fcv diff` can tell a new violation from a re-render
// of an old one. Signatures exposes the Weisfeiler-Lehman refinement
// labels that Fingerprint digests: one 64-bit canonical label per node
// and per device, invariant under renaming and element order, sensitive
// to connectivity, sizing and models — exactly the invariance contract
// of the fingerprint, applied per object.
package netlist

import "fmt"

// Signatures is the per-object canonical label table of one circuit.
// It is read-only once computed and safe for concurrent readers. Each
// stage that names findings computes its own table: the checks
// battery, timing, the lint rules and the hier boundary pass each run
// the refinement again on the circuit they were given.
type Signatures struct {
	c    *Circuit
	node []uint64
	dev  []uint64
	// devIndex maps device name to its index in c.Devices.
	devIndex map[string]int
}

// ComputeSignatures runs the refinement and indexes the result.
func ComputeSignatures(c *Circuit) *Signatures {
	r := c.refine()
	s := &Signatures{
		c:        c,
		node:     r.node,
		dev:      r.dev,
		devIndex: make(map[string]int, len(c.Devices)),
	}
	for i, d := range c.Devices {
		s.devIndex[d.Name] = i
	}
	return s
}

// SubjectSig resolves a finding subject to a canonical label: a node
// name maps to its node label, a device name to its device label, and
// anything else (compound subjects, group descriptors) falls back to a
// stable string hash — still deterministic, just rename-sensitive.
func (s *Signatures) SubjectSig(subject string) uint64 {
	if id := s.c.FindNode(subject); id >= 0 {
		return s.node[id]
	}
	if i, ok := s.devIndex[subject]; ok {
		return fpMix(s.dev[i], 5) // domain-separate devices from nodes
	}
	return fpMix(fpString(subject), 7)
}

// FindingID builds the stable finding identifier
// "<source>/<check>@<16-hex>" from the check identity and the subject's
// structural signature. Two findings of the same check on structurally
// identical places share an ID (use DisambiguateIDs to suffix the
// symmetric copies); renaming nodes or reordering the deck never
// changes it, while a W/L, model or connectivity change within the
// refinement horizon does.
func (s *Signatures) FindingID(source, check, subject string) string {
	h := fpMix(fpString(source+"/"+check), s.SubjectSig(subject))
	return fmt.Sprintf("%s/%s@%016x", source, check, h)
}

// StringID builds a finding identifier from a plain string subject with
// no structural resolution — for findings about a whole item (a
// verification error, a missing corpus member) where the carrier is the
// circuit fingerprint or the item name itself.
func StringID(source, check, subject string) string {
	h := fpMix(fpString(source+"/"+check), fpMix(fpString(subject), 7))
	return fmt.Sprintf("%s/%s@%016x", source, check, h)
}

// DisambiguateIDs suffixes repeated IDs in place with "#2", "#3", … in
// slice order, leaving the first occurrence bare. Structurally
// symmetric findings (two identical inverters with the same defect)
// share a base ID; the suffix keeps the rows distinct while the ID
// *multiset* stays rename-invariant. The input order must already be
// deterministic (reports sort their findings before calling this).
func DisambiguateIDs(ids []string) {
	seen := make(map[string]int, len(ids))
	for i, id := range ids {
		seen[id]++
		if n := seen[id]; n > 1 {
			ids[i] = fmt.Sprintf("%s#%d", id, n)
		}
	}
}
