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

import (
	"slices"
	"strconv"
)

// Signatures is the per-object canonical label table of one circuit:
// the refined label of every node, device, resistor and instance, plus
// a device-name index. It is read-only once computed and safe for
// concurrent readers. One table serves a whole verification: the fleet
// takes its cache key from it (Fingerprint), and core.Verify hands it
// to the checks battery, timing and the lint gate, which name their
// findings from it. It describes the circuit as it was when computed,
// so nothing keeps it past the verification it was computed for: a
// circuit that can still change must not carry a stale table.
type Signatures struct {
	c *Circuit
	refined
	// devIndex maps device name to its index in c.Devices.
	devIndex map[string]int
}

// ComputeSignatures runs the refinement and indexes the result.
func ComputeSignatures(c *Circuit) *Signatures {
	s := &Signatures{
		c:        c,
		refined:  c.refineLabels(nil),
		devIndex: make(map[string]int, len(c.Devices)),
	}
	for i, d := range c.Devices {
		s.devIndex[d.Name] = i
	}
	return s
}

// Fingerprint returns the structural hash of the circuit the table was
// computed from, byte-equal to its Circuit.Fingerprint. It digests
// sorted copies, so the table's labels stay in element order.
func (s *Signatures) Fingerprint() Fingerprint {
	return refined{
		node: slices.Clone(s.node),
		dev:  slices.Clone(s.dev),
		res:  slices.Clone(s.res),
		inst: slices.Clone(s.inst),
	}.digest()
}

// DeviceIndex returns the index in Circuit.Devices of the device named
// name, and whether there is one.
func (s *Signatures) DeviceIndex(name string) (int, bool) {
	i, ok := s.devIndex[name]
	return i, ok
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

// StringID builds a finding identifier from a plain string subject with
// no structural resolution — for findings about a whole item (a
// verification error, a missing corpus member) where the carrier is the
// circuit fingerprint or the item name itself.
func StringID(source, check, subject string) string {
	prefix := source + "/" + check
	return formatID(prefix, fpMix(fpString(prefix), fpMix(fpString(subject), 7)), 1)
}

// IDCounter numbers the finding IDs of one source and check in the
// order the findings are counted. An ID is
// "<source>/<check>@<16-hex>", a hash of the check identity and the
// subject's structural signature (SubjectSig), so renaming nodes or
// reordering the deck never changes it, while a W/L, model or
// connectivity change within the refinement horizon does.
// Structurally symmetric findings (two identical inverters with the
// same defect) share a base ID; the first keeps it bare and later ones
// get "#2", "#3", …, which keeps the rows distinct while the ID
// multiset stays rename-invariant. The counting order must be
// deterministic, and every finding must be counted, also one that is
// never named, so a named finding's suffix does not depend on which
// others were named. The source and check are hashed once per Reset.
type IDCounter struct {
	prefix string         // "<source>/<check>"
	seed   uint64         // fpString(prefix)
	seen   map[uint64]int // findings counted per base hash
}

// NewIDCounter returns an empty counter for source and check.
func NewIDCounter(source, check string) *IDCounter {
	k := new(IDCounter)
	k.Reset(source, check)
	return k
}

// Reset empties k and points it at source and check, keeping the room
// its count table has grown to.
func (k *IDCounter) Reset(source, check string) {
	k.prefix = source + "/" + check
	k.seed = fpString(k.prefix)
	if k.seen == nil {
		k.seen = make(map[uint64]int)
	} else {
		clear(k.seen)
	}
}

// Count counts one finding whose subject has structural signature sig
// (Signatures.SubjectSig) and returns its base hash and its number
// among the findings on that base, 1 for the first.
func (k *IDCounter) Count(sig uint64) (base uint64, n int) {
	base = fpMix(k.seed, sig)
	n = k.seen[base] + 1
	k.seen[base] = n
	return base, n
}

// ID renders the n-th finding on base as Count returned them:
// "<source>/<check>@<16-hex>", with "#n" appended from the second on.
func (k *IDCounter) ID(base uint64, n int) string {
	return formatID(k.prefix, base, n)
}

// formatID renders "<prefix>@<16-hex>", suffixed "#n" when n > 1.
func formatID(prefix string, h uint64, n int) string {
	const hex = "0123456789abcdef"
	b := make([]byte, 0, len(prefix)+24)
	b = append(b, prefix...)
	b = append(b, '@')
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hex[h>>uint(shift)&15])
	}
	if n > 1 {
		b = append(b, '#')
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return string(b)
}
