package fleet

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Cache memoizes core.Verify outcomes keyed on structural fingerprint
// plus configuration key. It is safe for concurrent use and uses
// singleflight admission: when several workers race on the same key,
// exactly one runs the verification and the rest block on its entry —
// so hit/miss counts are deterministic for a given corpus (every
// distinct key misses exactly once, ever), not scheduling-dependent.
//
// Invalidation is by key construction, not eviction: a change to the
// circuit's structure, sizing or models moves the fingerprint, and a
// change to the process model, clock, couplings or lint configuration
// moves the config key. Stale entries are simply never looked up again.
// The entry map is unbounded, and it is the only store: a subcell's
// hierarchical composition memos live on its entry, not in separately
// bounded side tables.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry

	// hierMemo short-circuits the per-cell refinement inside
	// HierFingerprint for cells whose content and child labels are
	// unchanged since a previous run through this cache.
	hierMemo *netlist.HierFPMemo
}

type cacheKey struct {
	fp  netlist.Fingerprint
	cfg string
}

// cacheEntry carries the creating caller's circuit, signature table and
// options into the once body, so the verification — and its telemetry
// spans — always attribute to the item whose lookup created the entry
// (the run's deterministic miss), even when a concurrent hit wins the
// race to execute the once. The once releases all three: a settled
// entry keeps no circuit-sized input. done flips after the once
// completes, letting later callers distinguish a settled hit from
// blocking on an in-flight run.
type cacheEntry struct {
	once    sync.Once
	done    atomic.Bool
	circuit func() (*netlist.Circuit, error)
	sigs    *netlist.Signatures // nil: computed on a miss
	opt     core.Options
	err     error

	// The settled outcome's skeleton report and normalized findings: one
	// shape on every path, shared read-only by every result of the key.
	rep      *core.Report
	findings []obs.Finding

	// Disk-layer traffic, set inside the once when a DiskCache was
	// attached: how the lookup went and whether the write landed.
	disk      diskOutcome
	diskWrote bool

	// A subcell scope's composition memos, guarded by Cache.mu: its port
	// interface and its boundary findings (nil until derived; derived
	// empty is a non-nil empty slice). The entry key — DAG fingerprint
	// plus a config key carrying the inlining cutoff — determines both,
	// so a warm re-verify replays them instead of re-flattening untouched
	// cells, concurrent runs that both derive one store equal values
	// (last write wins), and they live exactly as long as the verdict
	// they sit next to.
	ifc      *hier.Interface
	boundary []obs.Finding
}

// NewCache returns an empty verification cache.
func NewCache() *Cache {
	return &Cache{
		entries:  make(map[cacheKey]*cacheEntry),
		hierMemo: netlist.NewHierFPMemo(),
	}
}

// withEntry runs fn on the entry stored under (fp, cfg), if any, while
// holding c.mu — the guard of the entry's composition memos. fn only
// reads or writes those fields; it must not block.
func (c *Cache) withEntry(fp netlist.Fingerprint, cfg string, fn func(e *cacheEntry)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[cacheKey{fp: fp, cfg: cfg}]; e != nil {
		fn(e)
	}
}

// Len returns the number of distinct (fingerprint, config) entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// verify returns the memoized entry for the circuit, resolving it
// under the entry's once on first sight of the key. fresh is true for
// the single caller whose lookup created the entry — the run's miss;
// every other caller is a hit. inflight is true for hits that arrived
// before the resolution finished and had to block on it. looked runs
// once the lookup is done and before any blocking, so a caller can
// order lookups without serializing the verifications behind them.
//
// The circuit arrives as a provider, invoked only when the outcome
// actually has to be computed — never on a memory or disk hit. That is
// what makes lazy items (Item.Lazy) effective: a warm re-verify skips
// circuit construction entirely for every cache-hit key. sigs, when
// non-nil, is that circuit's signature table, already computed for the
// key; core then reuses it instead of refining the circuit again.
//
// When disk is non-nil the once body consults the persistent layer
// first: a disk hit decodes the stored outcome without running
// core.Verify at all; a disk miss verifies fresh and stores the settled
// outcome (errored outcomes are never persisted — a transient failure
// should not poison future runs). Because the disk I/O happens inside
// the once, per-key disk hit/miss counts stay singleflight-deterministic
// at any worker count, exactly like the memory layer's.
func (c *Cache) verify(fp netlist.Fingerprint, cfg string, circuit func() (*netlist.Circuit, error), sigs *netlist.Signatures, opt core.Options, disk *DiskCache, looked func()) (e *cacheEntry, fresh, inflight bool) {
	key := cacheKey{fp: fp, cfg: cfg}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{circuit: circuit, sigs: sigs, opt: opt}
		c.entries[key] = e
		fresh = true
	}
	c.mu.Unlock()
	inflight = !fresh && !e.done.Load()
	looked()
	e.once.Do(func() {
		var o *outcome
		if disk != nil {
			o, e.disk = disk.load(fp, cfg)
		}
		if o == nil {
			var circ *netlist.Circuit
			var rep *core.Report
			if circ, e.err = e.circuit(); e.err == nil {
				if e.sigs == nil {
					e.sigs = netlist.ComputeSignatures(circ)
				}
				rep, e.err = core.VerifyWithSignatures(circ, e.sigs, e.opt)
			}
			if e.err == nil {
				o = settle(rep)
				if disk != nil {
					e.diskWrote = disk.store(fp, cfg, o) == nil
				}
			}
		}
		if o != nil {
			// Before the entry is shared, so manifests only read them.
			obs.NormalizeFindings(o.Findings)
			e.rep, e.findings = o.report(), o.Findings
		}
		e.circuit, e.sigs, e.opt = nil, nil, core.Options{} // release the inputs
		e.done.Store(true)
	})
	return e, fresh, inflight
}
