// Hierarchical fingerprinting: the per-cell / DAG contract that makes
// incremental verification possible.
//
// The flat Fingerprint hashes instance connections against the child
// cell's *name*, so any edit anywhere in the hierarchy (or a mere cell
// rename) moves the top-level hash and cold-misses every cache.
// This file instead gives every cell a DAG hash: the refinement of the
// cell's local structure with each instance seeded by its child's DAG
// hash, mixed with the cell's boundary (port interface) signature.
// Content-identical hierarchies hash identically regardless of cell
// names or element order, and a one-leaf edit moves only that leaf's
// DAG hash and the DAG hashes on its path to the root.
//
// The verification fleet keys subcell cache entries on DAG hashes: a
// warm re-verify after a leaf edit recomputes exactly the edited cell
// plus its ancestors and replays everything else from cache.
package netlist

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
)

// hierFPVersion salts the DAG composition digest so any change to the
// composition rule invalidates previously cached hashes.
const hierFPVersion = "fcv-hierfp/v1"

// boundaryFold folds the refined port labels in declaration order.
func boundaryFold(c *Circuit, r refined) uint64 {
	h := fpMix(uint64(fpSeed), uint64(len(c.Ports)))
	for _, p := range c.Ports {
		h = fpMix(h, r.node[p])
	}
	return h
}

// fpFold compresses a 256-bit fingerprint into the 64-bit label space
// the refinement rounds operate in.
func fpFold(f Fingerprint) uint64 {
	return binary.LittleEndian.Uint64(f[0:8]) ^
		binary.LittleEndian.Uint64(f[8:16]) ^
		binary.LittleEndian.Uint64(f[16:24]) ^
		binary.LittleEndian.Uint64(f[24:32])
}

// CellInfo is one cell's entry in the hierarchical fingerprint DAG.
// Building it costs a single refinement per cell.
type CellInfo struct {
	Name        string
	DAG         Fingerprint // composed local structure + children DAGs + boundary
	Boundary    uint64      // port interface signature (from the composed refinement)
	Depth       int         // longest instance path below (leaf = 0)
	FlatDevices int         // device count after full flattening
	Instances   int         // direct instance count
	Children    []string    // direct child cell names, first-use order
}

// HierFP is the fingerprint DAG of a hierarchy rooted at Top: one
// CellInfo per reachable cell, in deterministic topological order
// (leaves first, Top last), so walking Order visits every cell after
// all of its children.
type HierFP struct {
	Top   string
	Order []string
	Cells map[string]*CellInfo
}

// HierFPMemo caches per-cell DAG results across HierFingerprint calls.
// A cell's (DAG, Boundary) pair is a pure function of its raw structure
// and its instances' child seed labels, so the memo keys on a cheap
// single-pass digest of exactly those inputs — deliberately rename- and
// order-SENSITIVE, unlike the refinement it short-circuits: a false
// miss only costs the refinement it would have skipped, never a wrong
// value. After a one-leaf edit, a warm rebuild refines only the edited
// cell and its ancestors (whose child labels moved); every other cell
// is one buffer hash.
type HierFPMemo struct {
	mu  sync.Mutex
	m   map[[sha256.Size]byte]hierFPMemoEntry
	buf []byte
}

type hierFPMemoEntry struct {
	dag      Fingerprint
	boundary uint64
}

// NewHierFPMemo returns an empty memo, safe for concurrent use.
func NewHierFPMemo() *HierFPMemo {
	return &HierFPMemo{m: make(map[[sha256.Size]byte]hierFPMemoEntry)}
}

// hierMemoSlack bounds the memo relative to the latest build's live
// key set: pruning starts only past this multiple, so re-verifying one
// design never evicts, while a daemon's edit history (one superseded
// key per edited cell per iteration) cannot grow the memo unboundedly.
const hierMemoSlack = 8

// prune drops entries outside live once the memo has outgrown
// hierMemoSlack times it. Eviction is always safe: a pruned entry costs
// one re-refinement on next sight, never a wrong value. Concurrent
// builds can prune each other's fresh entries — also only a perf cost.
func (mm *HierFPMemo) prune(live map[[sha256.Size]byte]bool) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if len(mm.m) <= hierMemoSlack*len(live) {
		return
	}
	for k := range mm.m {
		if !live[k] {
			delete(mm.m, k)
		}
	}
}

// rawKey digests every input the refinement reads: node classes, port
// flags, capacitances and attributes; device kind, flavour, sizing and
// terminals; resistors; instance connections with their child seed
// labels; and the port declaration order the boundary fold consumes.
// Names of devices, instances and non-supply nodes are structurally
// irrelevant and excluded (node identity enters through indices).
func (mm *HierFPMemo) rawKey(c *Circuit, childLabels []uint64) [sha256.Size]byte {
	b := mm.buf[:0]
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	u64(uint64(len(c.Nodes)))
	u64(uint64(len(c.Devices)))
	u64(uint64(len(c.Resistors)))
	u64(uint64(len(c.Instances)))
	u64(uint64(len(c.Ports)))
	for i := range c.Nodes {
		n := c.Nodes[i]
		var cls byte = 3
		switch {
		case c.IsVdd(NodeID(i)):
			cls = 1
		case c.IsVss(NodeID(i)):
			cls = 2
		}
		if n.IsPort {
			cls |= 1 << 4
		}
		b = append(b, cls)
		u64(math.Float64bits(n.CapFF))
		// The attr count keeps the encoding prefix-free: without it the
		// next node's fixed fields could parse as more length-prefixed
		// attr data, letting two different circuits share a key — and a
		// collision here is a false memo HIT returning a wrong DAG hash,
		// not a harmless miss.
		u64(uint64(len(n.Attrs)))
		if len(n.Attrs) > 0 {
			keys := make([]string, 0, len(n.Attrs))
			for k := range n.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				u64(uint64(len(k)))
				b = append(b, k...)
				v := n.Attrs[k]
				u64(uint64(len(v)))
				b = append(b, v...)
			}
		}
	}
	for i := range c.Devices {
		d := c.Devices[i]
		b = append(b, byte(d.Type), byte(d.Vt))
		u64(math.Float64bits(d.W))
		u64(math.Float64bits(d.L))
		u64(math.Float64bits(d.ExtraL))
		u64(uint64(d.Gate))
		u64(uint64(d.Bulk))
		u64(uint64(d.Source))
		u64(uint64(d.Drain))
	}
	for i := range c.Resistors {
		r := c.Resistors[i]
		u64(math.Float64bits(r.Ohms))
		u64(uint64(r.A))
		u64(uint64(r.B))
	}
	for i := range c.Instances {
		u64(childLabels[i])
		conns := c.Instances[i].Conns
		u64(uint64(len(conns)))
		for _, n := range conns {
			u64(uint64(n))
		}
	}
	for _, p := range c.Ports {
		u64(uint64(p))
	}
	mm.buf = b
	return sha256.Sum256(b)
}

// HierFingerprint builds the fingerprint DAG for the hierarchy rooted
// at top, resolving instance references through the library. top itself
// need not be a library member (a deck's element soup qualifies). It
// errors on references to cells the library does not define and on
// recursive hierarchies.
func (l *Library) HierFingerprint(top *Circuit) (*HierFP, error) {
	return l.HierFingerprintMemo(top, nil)
}

// HierFingerprintMemo is HierFingerprint with cross-call memoization of
// the per-cell refinement work (memo may be nil).
func (l *Library) HierFingerprintMemo(top *Circuit, memo *HierFPMemo) (*HierFP, error) {
	h := &HierFP{Top: top.Name, Cells: make(map[string]*CellInfo)}
	state := make(map[string]int) // 1 = in stack, 2 = done
	var live map[[sha256.Size]byte]bool
	if memo != nil {
		live = make(map[[sha256.Size]byte]bool)
	}
	var visit func(c *Circuit) (*CellInfo, error)
	visit = func(c *Circuit) (*CellInfo, error) {
		switch state[c.Name] {
		case 1:
			return nil, fmt.Errorf("hierfp: recursive hierarchy through cell %q", c.Name)
		case 2:
			return h.Cells[c.Name], nil
		}
		state[c.Name] = 1
		childLabels := make([]uint64, len(c.Instances))
		info := &CellInfo{
			Name:        c.Name,
			FlatDevices: len(c.Devices),
			Instances:   len(c.Instances),
		}
		seen := make(map[string]bool)
		for i, inst := range c.Instances {
			child := l.Cell(inst.Cell)
			if child == nil {
				return nil, fmt.Errorf("hierfp: cell %q: instance %s references unknown cell %q",
					c.Name, inst.Name, inst.Cell)
			}
			ci, err := visit(child)
			if err != nil {
				return nil, err
			}
			childLabels[i] = fpFold(ci.DAG)
			info.FlatDevices += ci.FlatDevices
			if ci.Depth+1 > info.Depth {
				info.Depth = ci.Depth + 1
			}
			if !seen[inst.Cell] {
				seen[inst.Cell] = true
				info.Children = append(info.Children, inst.Cell)
			}
		}
		var key [sha256.Size]byte
		var hit bool
		if memo != nil {
			memo.mu.Lock()
			key = memo.rawKey(c, childLabels)
			ent, ok := memo.m[key]
			memo.mu.Unlock()
			live[key] = true
			if ok {
				info.DAG, info.Boundary = ent.dag, ent.boundary
				hit = true
			}
		}
		if !hit {
			// A single refinement with the child DAG seeds yields both
			// the composed structure hash and the boundary signature. The
			// fold must run before digest, which sorts rc in place.
			rc := c.refineLabels(childLabels)
			info.Boundary = boundaryFold(c, rc)
			composed := rc.digest()

			hw := sha256.New()
			hw.Write([]byte(hierFPVersion))
			hw.Write(composed[:])
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], info.Boundary)
			hw.Write(buf[:])
			copy(info.DAG[:], hw.Sum(nil))
			if memo != nil {
				memo.mu.Lock()
				memo.m[key] = hierFPMemoEntry{dag: info.DAG, boundary: info.Boundary}
				memo.mu.Unlock()
			}
		}

		h.Cells[c.Name] = info
		h.Order = append(h.Order, c.Name)
		state[c.Name] = 2
		return info, nil
	}
	if _, err := visit(top); err != nil {
		return nil, err
	}
	if memo != nil {
		memo.prune(live)
	}
	return h, nil
}
