package fleet

import (
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// TestGCSkipsEntriesTouchedAfterScan pins the GC-vs-daemon eviction
// fix: an entry whose mtime moves between GC's scan and its removal
// pass — a live daemon's store or load-hit landing mid-GC — must
// survive, because the scan's LRU judgement about it is stale. Before
// the per-key recheck, GC(0) here would remove both entries, evicting
// the one the "daemon" had just refreshed.
func TestGCSkipsEntriesTouchedAfterScan(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	Verify([]Item{
		{Name: "one", Circuit: designs.InverterChain(8)},
		{Name: "two", Circuit: designs.DominoAdder(8)},
	}, Options{Core: coreOpts(), DiskCache: d, Workers: 1})
	files := entryFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("entries = %d, want 2", len(files))
	}
	touched := files[0]
	testHookGCScan = func() {
		now := obs.Now()
		if err := os.Chtimes(touched, now, now); err != nil {
			t.Errorf("touch: %v", err)
		}
	}
	defer func() { testHookGCScan = nil }()
	removed, _, err := d.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Errorf("GC removed %d entries, want 1 (the untouched one)", removed)
	}
	if _, err := os.Stat(touched); err != nil {
		t.Errorf("entry touched mid-GC was evicted: %v", err)
	}
	if _, err := os.Stat(files[1]); !os.IsNotExist(err) {
		t.Errorf("untouched entry survived GC(0): err=%v", err)
	}
}

// TestDiskCacheConcurrentStoreLoadGC hammers one cache with stores,
// loads and full GCs racing on the same keys — the daemon + `fcv cache
// gc` shape. The per-key locks must keep every interleaving safe: no
// load may ever classify an entry as corrupt (torn state), and once the
// dust settles a final store must round-trip. Run under -race in CI.
func TestDiskCacheConcurrentStoreLoadGC(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	items := []Item{
		{Name: "a", Circuit: designs.InverterChain(8)},
		{Name: "b", Circuit: designs.InverterChain(12)},
		{Name: "c", Circuit: designs.DominoAdder(8)},
	}
	copt := coreOpts()
	cfg := copt.Key()
	type entry struct {
		fp netlist.Fingerprint
		o  *outcome
	}
	ents := make([]entry, len(items))
	for i, it := range items {
		rep, err := core.Verify(it.Circuit, copt)
		if err != nil {
			t.Fatal(err)
		}
		ents[i] = entry{fp: it.Circuit.Fingerprint(), o: settle(rep)}
	}

	const iters = 60
	var wg sync.WaitGroup
	for g := 0; g < len(ents); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := d.store(ents[g].fp, cfg, ents[g].o); err != nil {
					t.Errorf("store: %v", err)
					return
				}
				if _, out := d.load(ents[g].fp, cfg); out == diskCorrupt {
					t.Error("load observed a corrupt entry during store/GC churn")
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, _, err := d.GC(0); err != nil {
				t.Errorf("gc: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if got := d.corrupts.Load(); got != 0 {
		t.Errorf("corrupt count = %d after churn, want 0", got)
	}
	// Quiescent round-trip: the cache still works.
	if err := d.store(ents[0].fp, cfg, ents[0].o); err != nil {
		t.Fatal(err)
	}
	if _, out := d.load(ents[0].fp, cfg); out != diskHit {
		t.Fatalf("post-churn load outcome = %v, want hit", out)
	}
}
