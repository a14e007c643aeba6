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

// cacheEntry carries the creating caller's circuit and options into the
// once body, so the verification — and its telemetry spans — always
// attribute to the item whose lookup created the entry (the run's
// deterministic miss), even when a concurrent hit wins the race to
// execute the once. done flips after the once completes, letting later
// callers distinguish a settled hit from blocking on an in-flight run.
type cacheEntry struct {
	once    sync.Once
	done    atomic.Bool
	circuit func() (*netlist.Circuit, error)
	opt     core.Options
	rep     *core.Report
	err     error

	// Disk-layer outcome, set inside the once when a DiskCache was
	// attached: how the disk lookup went, how many entries the write
	// evicted, and — on a disk hit — the stored findings (rep is then a
	// skeleton that cannot recompute them).
	disk        diskOutcome
	diskWrote   bool
	diskEvicted int
	findings    []obs.Finding

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
// circuit construction entirely for every cache-hit key.
//
// When disk is non-nil the once body consults the persistent layer
// first: a disk hit replays the stored outcome without running
// core.Verify at all; a disk miss verifies fresh and stores the result
// (errored outcomes are never persisted — a transient failure should
// not poison future runs). Because the disk I/O happens inside the
// once, per-key disk hit/miss counts stay singleflight-deterministic
// at any worker count, exactly like the memory layer's.
func (c *Cache) verify(fp netlist.Fingerprint, cfg string, circuit func() (*netlist.Circuit, error), opt core.Options, disk *DiskCache, looked func()) (e *cacheEntry, fresh, inflight bool) {
	key := cacheKey{fp: fp, cfg: cfg}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{circuit: circuit, opt: opt}
		c.entries[key] = e
		fresh = true
	}
	c.mu.Unlock()
	inflight = !fresh && !e.done.Load()
	looked()
	e.once.Do(func() {
		if disk != nil {
			if ent, out := disk.load(fp, cfg); out == diskHit {
				e.rep = ent.report()
				e.findings = ent.Findings
				e.disk = diskHit
			} else {
				e.disk = out
			}
		}
		if e.rep == nil {
			var circ *netlist.Circuit
			if circ, e.err = e.circuit(); e.err == nil {
				e.rep, e.err = core.Verify(circ, e.opt)
			}
			if disk != nil && e.err == nil {
				var serr error
				e.diskEvicted, serr = disk.store(fp, cfg, e.rep)
				e.diskWrote = serr == nil
			}
		}
		e.circuit, e.opt = nil, core.Options{} // release the inputs
		e.done.Store(true)
	})
	return e, fresh, inflight
}
