// Structural fingerprinting: a canonical content hash of a circuit's
// topology and sizing.
//
// The verification fleet (internal/fleet) keys its result cache on this
// hash so the N structurally identical SRAM columns or domino carry
// stages of a big array are recognized, checked and timed once and the
// result replayed for every other copy. That only works if the hash is
// *canonical*: two circuits that differ only in node names, device
// names, or the order elements were added must hash identically, while
// any electrically meaningful difference — a width, a length, a Vt
// flavour, a changed connection, port-ness of a node — must change it.
//
// The algorithm is Weisfeiler-Lehman colour refinement over the
// device/node incidence hypergraph: every node starts with a label built
// from its electrical invariants, then labels are repeatedly mixed with
// the labels of incident elements (respecting terminal roles, with
// source/drain treated symmetrically because MOS channels are), and the
// final sorted multiset of labels is hashed. Renaming or reordering
// cannot change the result by construction; collisions between genuinely
// different circuits are possible in principle but need an engineered
// 64-bit collision per refinement round.
package netlist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"sort"
)

// Fingerprint is a canonical structural hash of a circuit.
type Fingerprint [32]byte

// String returns the full lowercase hex form.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Short returns an 8-hex-digit prefix for report tables.
func (f Fingerprint) Short() string { return hex.EncodeToString(f[:4]) }

// fpRounds is the number of refinement rounds. Each round extends the
// neighbourhood a label describes by one hop; eight hops distinguishes
// everything the verification tools themselves can distinguish (CCC
// diameters in real circuits are far smaller).
const fpRounds = 8

// refined holds the converged Weisfeiler-Lehman labels: one canonical
// hash per node and per element. Fingerprint digests the sorted
// multisets; Signatures keeps the per-object labels so findings can be
// identified by *where they are structurally*, not by name.
type refined struct {
	node []uint64
	dev  []uint64
	res  []uint64
	inst []uint64
}

// refineLabels runs the colour-refinement rounds and returns the final
// labels; it is the shared engine of Fingerprint, Signatures and the
// hierarchical hashes. When instLabels is nil each instance seeds from
// its cell *name* (the flat Fingerprint contract: a renamed child cell
// changes the parent hash). The hierarchical DAG fingerprint, which
// seeds each instance with the child's own composed fingerprint, passes
// len(c.Instances) labels instead.
func (c *Circuit) refineLabels(instLabels []uint64) refined {
	// Initial node labels: electrical invariants only — never the name,
	// except the canonical supply identity (vdd and vss are global
	// meanings, not names).
	labels := make([]uint64, len(c.Nodes))
	for i, n := range c.Nodes {
		h := uint64(fpSeed)
		switch {
		case c.IsVdd(NodeID(i)):
			h = fpMix(h, 1)
		case c.IsVss(NodeID(i)):
			h = fpMix(h, 2)
		default:
			h = fpMix(h, 3)
		}
		if n.IsPort {
			h = fpMix(h, 1)
		} else {
			h = fpMix(h, 0)
		}
		h = fpMix(h, math.Float64bits(n.CapFF))
		if len(n.Attrs) > 0 {
			keys := make([]string, 0, len(n.Attrs))
			for k := range n.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				h = fpMix(h, fpString(k))
				h = fpMix(h, fpString(n.Attrs[k]))
			}
		}
		labels[i] = h
	}

	// Static element hashes (sizing and kind; no names, no terminals).
	devStatic := make([]uint64, len(c.Devices))
	for i, d := range c.Devices {
		h := fpMix(fpSeed, uint64(d.Type))
		h = fpMix(h, uint64(d.Vt))
		h = fpMix(h, math.Float64bits(d.W))
		h = fpMix(h, math.Float64bits(d.L))
		h = fpMix(h, math.Float64bits(d.ExtraL))
		devStatic[i] = h
	}
	resStatic := make([]uint64, len(c.Resistors))
	for i, r := range c.Resistors {
		resStatic[i] = fpMix(fpSeed, math.Float64bits(r.Ohms))
	}
	instStatic := make([]uint64, len(c.Instances))
	for i, inst := range c.Instances {
		if instLabels != nil {
			instStatic[i] = fpMix(fpSeed, instLabels[i])
		} else {
			instStatic[i] = fpMix(fpSeed, fpString(inst.Cell))
		}
	}

	// Incidence: every (node, role, element) edge, built once in a
	// compressed sparse row layout — one flat edge array plus per-node
	// offsets — so the whole structure is two allocations instead of a
	// slice header (plus append growth) per node.
	const (
		roleGate    = 11
		roleBulk    = 13
		roleChannel = 17
		roleRes     = 19
		roleInst    = 23 // instance conns add their position to this
	)
	type incidence struct {
		role uint64
		elem int32 // index into the per-kind hash slice
		kind int8  // 0 device, 1 resistor, 2 instance
	}
	nEdges := 4 * len(c.Devices)
	nEdges += 2 * len(c.Resistors)
	for _, inst := range c.Instances {
		nEdges += len(inst.Conns)
	}
	// Count-then-fill: after the prefix sum, node n's edges live in
	// edges[off[n]:off[n+1]].
	off := make([]int32, len(c.Nodes)+1)
	countEdge := func(n NodeID) { off[int(n)+1]++ }
	for _, d := range c.Devices {
		countEdge(d.Gate)
		countEdge(d.Bulk)
		countEdge(d.Source)
		countEdge(d.Drain)
	}
	for _, r := range c.Resistors {
		countEdge(r.A)
		countEdge(r.B)
	}
	for _, inst := range c.Instances {
		for _, n := range inst.Conns {
			countEdge(n)
		}
	}
	maxDeg := int32(0)
	for i := 1; i <= len(c.Nodes); i++ {
		if off[i] > maxDeg {
			maxDeg = off[i]
		}
		off[i] += off[i-1]
	}
	edges := make([]incidence, nEdges)
	cur := make([]int32, len(c.Nodes))
	copy(cur, off)
	addEdge := func(n NodeID, role uint64, elem int, kind int8) {
		edges[cur[n]] = incidence{role, int32(elem), kind}
		cur[n]++
	}
	for i, d := range c.Devices {
		addEdge(d.Gate, roleGate, i, 0)
		addEdge(d.Bulk, roleBulk, i, 0)
		addEdge(d.Source, roleChannel, i, 0)
		addEdge(d.Drain, roleChannel, i, 0)
	}
	for i, r := range c.Resistors {
		addEdge(r.A, roleRes, i, 1)
		addEdge(r.B, roleRes, i, 1)
	}
	for i, inst := range c.Instances {
		for pos, n := range inst.Conns {
			addEdge(n, roleInst+uint64(pos)*29, i, 2)
		}
	}

	devHash := make([]uint64, len(c.Devices))
	resHash := make([]uint64, len(c.Resistors))
	instHash := make([]uint64, len(c.Instances))
	next := make([]uint64, len(c.Nodes))
	contrib := make([]uint64, 0, maxDeg)
	for round := 0; round < fpRounds; round++ {
		for i, d := range c.Devices {
			devHash[i] = fpMix(fpMix(fpMix(devStatic[i], labels[d.Gate]), labels[d.Bulk]),
				fpCommute(labels[d.Source], labels[d.Drain]))
		}
		for i, r := range c.Resistors {
			resHash[i] = fpMix(resStatic[i], fpCommute(labels[r.A], labels[r.B]))
		}
		for i, inst := range c.Instances {
			h := instStatic[i]
			for _, n := range inst.Conns {
				h = fpMix(h, labels[n]) // positional: order matters
			}
			instHash[i] = h
		}
		for n := range labels {
			contrib = contrib[:0]
			for _, e := range edges[off[n]:off[n+1]] {
				var eh uint64
				switch e.kind {
				case 0:
					eh = devHash[e.elem]
				case 1:
					eh = resHash[e.elem]
				default:
					eh = instHash[e.elem]
				}
				contrib = append(contrib, fpMix(e.role, eh))
			}
			// The multiset of incident-element views, order-independent.
			slices.Sort(contrib)
			h := labels[n]
			for _, v := range contrib {
				h = fpMix(h, v)
			}
			next[n] = h
		}
		labels, next = next, labels
	}
	return refined{node: labels, dev: devHash, res: resHash, inst: instHash}
}

// Fingerprint computes the canonical structural hash. It is invariant
// under node renaming, device/resistor/instance renaming and element
// reordering, and sensitive to connectivity, W/L/ExtraL sizing, device
// type and Vt class, node capacitance and attributes, port-ness, and
// supply identity. Instance connections hash positionally against the
// referenced cell *name*, so two instances of differently-named but
// identical cells hash differently. For a name-invariant hierarchical
// hash use Library.HierFingerprint instead: it composes each cell's
// local structure with its children's DAG hashes and its port boundary
// signature — rename/reorder-invariant like Fingerprint, but a one-leaf
// edit moves only that leaf's hash and the hashes on its path to the
// root.
func (c *Circuit) Fingerprint() Fingerprint {
	return c.refineLabels(nil).digest()
}

// digest collapses a refinement result into the 256-bit hash: the
// element counts plus the sorted label multisets. Sorting removes any
// dependence on insertion order. It sorts r's slices in place, so the
// caller must own them: refineLabels allocates fresh ones per call, and
// Signatures.Fingerprint digests copies of its table.
func (r refined) digest() Fingerprint {
	slices.Sort(r.dev)
	slices.Sort(r.res)
	slices.Sort(r.inst)
	slices.Sort(r.node)

	hw := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		hw.Write(buf[:])
	}
	put(uint64(len(r.node)))
	put(uint64(len(r.dev)))
	put(uint64(len(r.res)))
	put(uint64(len(r.inst)))
	for _, v := range r.node {
		put(v)
	}
	for _, v := range r.dev {
		put(v)
	}
	for _, v := range r.res {
		put(v)
	}
	for _, v := range r.inst {
		put(v)
	}
	var out Fingerprint
	copy(out[:], hw.Sum(nil))
	return out
}

// fpSeed is the refinement base constant (splitmix64's increment).
const fpSeed = 0x9e3779b97f4a7c15

// fpMix folds v into h with a strong 64-bit finalizer (murmur3's).
// It is order-sensitive: fpMix(fpMix(h,a),b) != fpMix(fpMix(h,b),a).
func fpMix(h, v uint64) uint64 {
	h ^= v + fpSeed + (h << 6) + (h >> 2)
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// fpCommute combines two labels symmetrically (for the interchangeable
// source/drain pair and resistor ends).
func fpCommute(a, b uint64) uint64 {
	if a > b {
		a, b = b, a
	}
	return fpMix(fpMix(fpSeed, a), b)
}

// fpString hashes a string (attribute keys/values, cell names).
func fpString(s string) uint64 {
	h := uint64(fpSeed)
	for i := 0; i < len(s); i++ {
		h = fpMix(h, uint64(s[i]))
	}
	return h
}
