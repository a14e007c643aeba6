// Hierarchical incremental verification: the fleet driver that keys
// the cache on the per-cell fingerprint DAG instead of one whole-
// netlist hash.
//
// Whole-netlist keying makes any edit a full cold re-verify: one
// transistor moved anywhere moves the flat fingerprint. VerifyHier
// instead verifies every cell of the hierarchy once, in isolation
// (hier.ScopeCircuit), keyed on the cell's DAG fingerprint
// (netlist.HierFingerprint) — so a one-leaf edit misses exactly the
// edited cell and the cells on its path to the root, and replays
// everything else from the same memory/disk caches a cold run filled.
// Parent results are composed deterministically from child verdicts
// plus boundary checks (hier.BoundaryFindings) and the interface
// timing arc (max of min-periods); composition is a post-pass over
// the input-ordered results, so the j-independence of Verify carries
// over unchanged.
package fleet

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/checks"
	"repro/internal/hier"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// DefaultHierInline is the Options.HierInline default: cells that
// flatten to at most this many devices are folded into their parent's
// scope rather than cached independently.
const DefaultHierInline = 16

// HierKeySalt marks subcell-scope cache entries: a scope's report
// describes the cell with child nets promoted to ports, which is not
// interchangeable with a whole-netlist report of the same circuit.
// VerifyHier appends the effective inlining cutoff to it, so entries
// from different HierInline configurations never alias either.
const HierKeySalt = "|hier-scope/v1"

// VerifyHier runs hierarchical incremental verification of the design
// rooted at top over the library. Every cell large enough to keep
// (Options.HierInline) becomes one fleet item — its isolated scope
// keyed on the cell's DAG fingerprint — and parents are composed from
// child results. When the hierarchy is absent, or inlining folds
// everything into the top, it falls back to whole-netlist Verify.
// Results appear in deterministic topological order, children before
// parents, top last.
func VerifyHier(lib *netlist.Library, top *netlist.Circuit, opt Options) (*Report, error) {
	// The hier side-tables — interface/boundary memos and the per-cell
	// fingerprint memo — live on the verification cache, so resolve it
	// up front and share one even when the caller did not ask for
	// memoization.
	if opt.Cache == nil {
		opt.Cache = NewCache()
	}
	cache := opt.Cache

	hfp, err := lib.HierFingerprintMemo(top, cache.hierMemo)
	if err != nil {
		return nil, err
	}
	cutoff := opt.HierInline
	if cutoff == 0 {
		cutoff = DefaultHierInline
	}
	keep := func(name string) bool {
		if name == top.Name {
			return true
		}
		ci := hfp.Cells[name]
		return ci != nil && ci.FlatDevices > cutoff
	}
	// FlatDevices is monotone up the tree, so an inlined cell can never
	// contain a kept one: the kept cells form a sub-DAG and hfp.Order
	// filtered by keep is still topological (children before parents).
	units := make([]string, 0, len(hfp.Order))
	for _, name := range hfp.Order {
		if keep(name) {
			units = append(units, name)
		}
	}
	if len(units) <= 1 {
		// Hierarchy absent (or entirely inlined): flattening is cheaper
		// than composing — whole-netlist verification, plain keying.
		flat, err := lib.FlattenKeep(top, nil)
		if err != nil {
			return nil, err
		}
		return Verify([]Item{{Name: top.Name, Circuit: flat}}, opt), nil
	}

	circuitOf := func(name string) *netlist.Circuit {
		if name == top.Name {
			return top
		}
		return lib.Cell(name)
	}
	dag := func(name string) netlist.Fingerprint { return hfp.Cells[name].DAG }
	keptChildren := func(name string) []string {
		var children []string
		for _, ch := range hfp.Cells[name].Children {
			if keep(ch) {
				children = append(children, ch)
			}
		}
		return children
	}

	// Effective circuits (inlined cells folded in) are built lazily and
	// memoized: a warm re-verify flattens only the cells whose results
	// — or composition derivatives — are not replayed from cache.
	var effMu sync.Mutex
	eff := make(map[string]*netlist.Circuit, len(units))
	effOf := func(name string) (*netlist.Circuit, error) {
		effMu.Lock()
		defer effMu.Unlock()
		if e := eff[name]; e != nil {
			return e, nil
		}
		e, err := lib.FlattenKeep(circuitOf(name), keep)
		if err != nil {
			return nil, err
		}
		eff[name] = e
		return e, nil
	}

	items := make([]Item, 0, len(units))
	for _, name := range units {
		name := name
		items = append(items, Item{Name: name, Key: dag(name), Lazy: func() (*netlist.Circuit, error) {
			e, err := effOf(name)
			if err != nil {
				return nil, err
			}
			return hier.ScopeCircuit(e), nil
		}})
	}

	// The cutoff shapes every kept cell's scope (it decides which
	// children are inlined into the scope vs promoted to ports), so it
	// must be part of the cache key: without it, runs with different
	// -hier-inline values sharing a cache dir — or daemon requests with
	// different ?hier_inline — would alias entries for materially
	// different circuits and silently replay wrong verdicts.
	opt.keySalt = fmt.Sprintf("%s|inline=%d", HierKeySalt, cutoff)
	rep := Verify(items, opt)

	// Port interfaces, memoized on (DAG, cutoff) across runs: resolving
	// one recurses through kept children, so only cells under an edited
	// ancestor are ever re-derived.
	var ifcOf func(name string) (*hier.Interface, error)
	ifcOf = func(name string) (*hier.Interface, error) {
		k := hierKey{fp: dag(name), cutoff: cutoff}
		if ifc, ok := cache.hierIfc(k); ok {
			return ifc, nil
		}
		children := make(map[string]*hier.Interface)
		for _, ch := range keptChildren(name) {
			ci, err := ifcOf(ch)
			if err != nil {
				return nil, err
			}
			children[ch] = ci
		}
		e, err := effOf(name)
		if err != nil {
			return nil, err
		}
		ifc, err := hier.CellInterface(e, children)
		if err != nil {
			return nil, err
		}
		cache.setHierIfc(k, ifc)
		return ifc, nil
	}
	boundaryOf := func(name string) ([]obs.Finding, error) {
		k := hierKey{fp: dag(name), cutoff: cutoff}
		if bf, ok := cache.hierBoundary(k); ok {
			return bf, nil
		}
		children := make(map[string]*hier.Interface)
		for _, ch := range keptChildren(name) {
			ci, err := ifcOf(ch)
			if err != nil {
				return nil, err
			}
			children[ch] = ci
		}
		e, err := effOf(name)
		if err != nil {
			return nil, err
		}
		bf, err := hier.BoundaryFindings(e, children)
		if err != nil {
			return nil, err
		}
		cache.setHierBoundary(k, bf)
		return bf, nil
	}

	// First-use parents, assigned walking the DAG top-down.
	idx := make(map[string]int, len(units))
	for i, name := range units {
		idx[name] = i
	}
	parentOf := make(map[string]string, len(units))
	for i := len(units) - 1; i >= 0; i-- {
		for _, child := range hfp.Cells[units[i]].Children {
			if _, claimed := parentOf[child]; keep(child) && !claimed {
				parentOf[child] = units[i]
			}
		}
	}

	// Deterministic composition post-pass in topological order: by the
	// time a parent composes, every child already carries its own
	// composed verdict and timing arc.
	var composed int64
	for i, name := range units {
		res := &rep.Results[i]
		res.Subcell = name
		res.Parent = parentOf[name]
		if res.Err != nil {
			continue
		}
		v := res.Report.Verdict
		minP := res.Report.Timing.MinPeriodPS
		children := keptChildren(name)
		if len(children) > 0 {
			bf, err := boundaryOf(name)
			if err != nil {
				return nil, err
			}
			res.extra = bf
			for _, f := range bf {
				if fv := severityVerdict(f.Severity); fv > v {
					v = fv
				}
			}
			for _, ch := range children {
				cres := &rep.Results[idx[ch]]
				if cres.Err != nil {
					continue
				}
				if cv := cres.EffectiveVerdict(); cv > v {
					v = cv
				}
				if cres.ComposedMinPeriodPS > minP {
					minP = cres.ComposedMinPeriodPS
				}
			}
			res.ComposedFrom = len(children)
			composed++
		}
		res.composed, res.composeSet = v, true
		res.ComposedMinPeriodPS = minP
	}
	for _, name := range units {
		res := &rep.Results[idx[name]]
		if res.ComposedFrom > 0 {
			opt.Events.Emit("subcell-compose", fmt.Sprintf("%s verdict=%s children=%d boundary=%d",
				name, res.VerdictString(), res.ComposedFrom, len(res.extra)))
		}
	}
	if opt.Obs != nil {
		hits := 0
		for i := range rep.Results {
			if rep.Results[i].Cached || rep.Results[i].DiskHit {
				hits++
			}
		}
		opt.Obs.Add("fleet.subcell.hit", int64(hits))
		opt.Obs.Add("fleet.subcell.miss", int64(len(rep.Results)-hits))
		opt.Obs.Add("fleet.subcell.compose", composed)
	}
	// Bound the side-tables for long-running daemons: entries keyed by
	// superseded DAG hashes (earlier edit iterations) are pruned once
	// they outnumber this run's live set by a wide margin.
	live := make(map[hierKey]bool, len(units))
	for _, name := range units {
		live[hierKey{fp: dag(name), cutoff: cutoff}] = true
	}
	cache.pruneHier(live)
	return rep, nil
}

// severityVerdict maps a finding severity onto the verdict lattice.
func severityVerdict(sev string) checks.Verdict {
	switch sev {
	case "violation":
		return checks.Violation
	case "inspect", "warn":
		return checks.Inspect
	}
	return checks.Pass
}

// HierFromDeck parses one SPICE deck and resolves its hierarchy root
// with the same top inference as ItemsFromDeck: a named top wins (cell
// name, or the element soup's name), an element soup is the top, else
// the last-defined cell.
func HierFromDeck(r io.Reader, srcName, top string) (*netlist.Library, *netlist.Circuit, error) {
	lib, soup, err := netlist.ParseNamed(r, srcName)
	if err != nil {
		return nil, nil, err
	}
	soupLive := len(soup.Devices) > 0 || len(soup.Instances) > 0 || len(soup.Resistors) > 0
	var t *netlist.Circuit
	switch {
	case top != "":
		t = lib.Cell(top)
		if t == nil && soupLive && soup.Name == top {
			t = soup
		}
		if t == nil {
			return nil, nil, fmt.Errorf("fleet: deck %s: unknown top cell %q", srcName, top)
		}
	case soupLive:
		t = soup
	default:
		names := lib.Cells()
		if len(names) == 0 {
			return nil, nil, fmt.Errorf("fleet: empty deck %s", srcName)
		}
		t = lib.Cell(names[len(names)-1])
	}
	return lib, t, nil
}
