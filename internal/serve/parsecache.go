package serve

import (
	"container/list"
	"sync"

	"repro/internal/fleet"
	"repro/internal/netlist"
)

// parseCache memoizes deck parsing across requests: an LRU keyed on the
// deck's sha256 plus every parameter that changes the parse result
// (src name, ?top=, ?cells=). The agent-loop workload re-submits the
// same deck many times per minute (verify, tweak one device, verify
// again), and while the *verification* layers already dedupe via the
// structural-fingerprint caches, the parse itself — tokenizing,
// subckt expansion, flattening — ran from scratch on every request.
// A byte-identical resubmit now skips straight to warm []fleet.Item.
//
// Sharing parsed items across concurrent requests is safe because the
// verification pipeline treats netlist.Circuit as read-only: the only
// lazily-cached state (the vdd/vss node lookups) is populated during
// parsing, before the items ever enter the cache.
type parseCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List               // front = most recent; values are *parseEntry
	entries map[string]*list.Element // key -> element
}

// parseEntry is one memoized parse. Flat requests fill items; ?hier=1
// requests instead keep the library and resolved top so VerifyHier can
// walk the hierarchy (the two shapes never share a key — the hier flag
// is part of it).
type parseEntry struct {
	key   string
	items []fleet.Item
	lib   *netlist.Library
	top   *netlist.Circuit
}

// newParseCache builds a cache holding up to max decks.
func newParseCache(max int) *parseCache {
	return &parseCache{
		max:     max,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// get returns the cached parse for key, refreshing its recency.
func (c *parseCache) get(key string) ([]fleet.Item, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*parseEntry).items, true
}

// getHier returns the cached hierarchical parse for key, refreshing
// its recency.
func (c *parseCache) getHier(key string) (*netlist.Library, *netlist.Circuit, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, nil, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*parseEntry)
	return e.lib, e.top, e.lib != nil
}

// put stores a parse result, evicting the least-recently-used entry
// when the cache is full.
func (c *parseCache) put(key string, items []fleet.Item) {
	c.putEntry(&parseEntry{key: key, items: items})
}

// putHier stores a hierarchical parse result under the same LRU.
func (c *parseCache) putHier(key string, lib *netlist.Library, top *netlist.Circuit) {
	c.putEntry(&parseEntry{key: key, lib: lib, top: top})
}

func (c *parseCache) putEntry(e *parseEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[e.key] = c.order.PushFront(e)
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*parseEntry).key)
	}
}

// len reports the current entry count (for tests and /stats).
func (c *parseCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
