package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// diskZoo is a corpus of structurally distinct designs, so every item
// has its own disk entry; it avoids designs whose finding lists make
// entries huge.
func diskZoo() []Item {
	return []Item{
		{Name: "adder24", Circuit: designs.DominoAdder(24)},
		{Name: "adder32", Circuit: designs.DominoAdder(32)},
		{Name: "sram16x8", Circuit: designs.SRAMArray(16, 8, 0.09)},
		{Name: "pipeline12", Circuit: designs.LatchPipeline(12, false)},
		{Name: "invchain64", Circuit: designs.InverterChain(64)},
	}
}

// entryFiles lists every entry file in a cache directory.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".json" {
			out = append(out, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDiskCacheWarmVsCold is the incremental-verification contract: a
// second run over an unchanged corpus and config replays every result
// from disk — zero verifications, identical deterministic report text,
// and at least 5x less wall clock than the cold run that populated it.
func TestDiskCacheWarmVsCold(t *testing.T) {
	dir := t.TempDir()
	cold, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldObs := obs.New()
	coldRep := Verify(diskZoo(), Options{Core: coreOpts(), DiskCache: cold, Workers: 1, Obs: coldObs})
	if coldRep.DiskHits != 0 || coldRep.DiskMisses != len(diskZoo()) {
		t.Fatalf("cold run: disk hits=%d misses=%d, want 0/%d", coldRep.DiskHits, coldRep.DiskMisses, len(diskZoo()))
	}

	warm, err := OpenDiskCache(dir) // fresh handle: nothing in memory
	if err != nil {
		t.Fatal(err)
	}
	warmObs := obs.New()
	warmRep := Verify(diskZoo(), Options{Core: coreOpts(), DiskCache: warm, Workers: 1, Obs: warmObs})
	if warmRep.DiskHits != len(diskZoo()) || warmRep.DiskMisses != 0 {
		t.Fatalf("warm run: disk hits=%d misses=%d, want %d/0", warmRep.DiskHits, warmRep.DiskMisses, len(diskZoo()))
	}
	for i, res := range warmRep.Results {
		if !res.DiskHit {
			t.Errorf("item %s: DiskHit=false on warm run", res.Name)
		}
		if got, want := res.VerdictString(), coldRep.Results[i].VerdictString(); got != want {
			t.Errorf("item %s: warm verdict %q != cold %q", res.Name, got, want)
		}
	}
	if got, want := warmRep.Text(), coldRep.Text(); got != want {
		t.Errorf("deterministic report text differs warm vs cold:\n--- cold ---\n%s--- warm ---\n%s", want, got)
	}
	// Findings replay exactly (same IDs in the same order).
	for i := range warmRep.Results {
		cf, wf := coldRep.Results[i].Findings(), warmRep.Results[i].Findings()
		if len(cf) != len(wf) {
			t.Fatalf("item %s: %d findings cold, %d warm", warmRep.Results[i].Name, len(cf), len(wf))
		}
		for j := range cf {
			if cf[j].ID != wf[j].ID {
				t.Errorf("item %s finding %d: ID %q cold vs %q warm", warmRep.Results[i].Name, j, cf[j].ID, wf[j].ID)
			}
		}
	}
	// The warm run skips the whole pipeline: no core.Verify call and no
	// recognize, checks or timing span, where the cold run has one call
	// and one span per stage for every item.
	if got, want := coldObs.Counter("core.verify_runs"), int64(len(diskZoo())); got != want {
		t.Errorf("cold run: core.verify_runs = %d, want %d", got, want)
	}
	if got := warmObs.Counter("core.verify_runs"); got != 0 {
		t.Errorf("warm run: core.verify_runs = %d, want 0", got)
	}
	if got, want := stageSpans(coldObs), 3*len(diskZoo()); got != want {
		t.Errorf("cold run: %d recognize/checks/timing spans, want %d", got, want)
	}
	if got := stageSpans(warmObs); got != 0 {
		t.Errorf("warm run: %d recognize/checks/timing spans, want 0", got)
	}
}

// stageSpans counts the recognize, checks and timing spans a run
// recorded.
func stageSpans(c *obs.Collector) int {
	n := 0
	for _, sp := range c.Spans() {
		switch path.Base(sp.Path) {
		case "recognize", "checks", "timing":
			n++
		}
	}
	return n
}

// TestDiskCacheCorruptEntries pins the robustness contract: truncated
// and wrong-version entries load as misses, are evicted, and the items
// re-verify (and re-store) correctly.
func TestDiskCacheCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	items := []Item{
		{Name: "a", Circuit: designs.InverterChain(8)},
		{Name: "b", Circuit: designs.DominoAdder(8)},
	}
	base := Verify(items, Options{Core: coreOpts(), DiskCache: d})
	files := entryFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("expected 2 entries, found %d", len(files))
	}

	// Truncate the first entry mid-JSON; rewrite the second with a
	// version the current format does not accept.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var e diskEntry
	if raw, err := os.ReadFile(files[1]); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	e.Version = "fcv-diskcache/v0"
	raw, _ := json.Marshal(&e)
	if err := os.WriteFile(files[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep := Verify(items, Options{Core: coreOpts(), DiskCache: d2})
	if rep.DiskCorrupt != 2 || rep.DiskHits != 0 {
		t.Fatalf("corrupt=%d hits=%d, want corrupt=2 hits=0", rep.DiskCorrupt, rep.DiskHits)
	}
	if got, want := rep.Text(), base.Text(); got != want {
		t.Errorf("re-verified report differs from original:\n%s\nvs\n%s", got, want)
	}
	// The bad entries were replaced by good ones: a third run is clean.
	d3, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep3 := Verify(items, Options{Core: coreOpts(), DiskCache: d3})
	if rep3.DiskHits != 2 || rep3.DiskCorrupt != 0 {
		t.Fatalf("after repair: hits=%d corrupt=%d, want 2/0", rep3.DiskHits, rep3.DiskCorrupt)
	}
}

// TestDiskCacheConcurrentWriters runs two fleets against one cache
// directory at once (run under -race). Atomic temp+rename writes mean
// neither observes a partial entry, and afterwards the directory
// serves a fully warm run.
func TestDiskCacheConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	items := zoo()
	var wg sync.WaitGroup
	reps := make([]*Report, 2)
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := OpenDiskCache(dir)
			if err != nil {
				t.Error(err)
				return
			}
			reps[i] = Verify(items, Options{Core: coreOpts(), DiskCache: d, Workers: 4})
		}(i)
	}
	wg.Wait()
	if reps[0] == nil || reps[1] == nil {
		t.Fatal("a concurrent run failed")
	}
	if got, want := reps[0].Text(), reps[1].Text(); got != want {
		t.Errorf("concurrent runs disagree:\n%s\nvs\n%s", got, want)
	}
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep := Verify(items, Options{Core: coreOpts(), DiskCache: d})
	if rep.DiskHits != len(items) || rep.DiskMisses != 0 {
		t.Fatalf("post-race warm run: hits=%d misses=%d, want %d/0", rep.DiskHits, rep.DiskMisses, len(items))
	}
	if got, want := rep.Text(), reps[0].Text(); got != want {
		t.Errorf("warm run disagrees with writers:\n%s\nvs\n%s", got, want)
	}
}

// TestDiskCacheGC pins LRU eviction and the stats scan.
func TestDiskCacheGC(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Fixture: one entry per zoo design, all the same size, written
	// through the cache's store path so Stats counts the writes. Their
	// mtimes are set a minute apart in write order, so the LRU order is
	// fixed whatever the filesystem's timestamp resolution. With equal
	// sizes, halving the byte bound must evict some entries and keep
	// others. (Verifying the zoo itself cannot: its SRAM entry is most
	// of the bytes and also the newest.)
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	paths := make([]string, len(zoo()))
	for i := range paths {
		var fp netlist.Fingerprint
		fp[0] = byte(i + 1)
		rep := &core.Report{Design: fmt.Sprintf("gc-entry-%d", i)}
		if _, err := d.store(fp, "gc-fixture", rep); err != nil {
			t.Fatal(err)
		}
		paths[i] = d.entryPath(fp, "gc-fixture")
		mtime := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(paths[i], mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	st, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != len(zoo()) || st.Bytes == 0 {
		t.Fatalf("stats: entries=%d bytes=%d, want %d entries and nonzero bytes", st.Entries, st.Bytes, len(zoo()))
	}
	if st.Writes != int64(len(zoo())) {
		t.Fatalf("stats: writes=%d, want %d", st.Writes, len(zoo()))
	}
	// Shrink to roughly half: some entries evict, some survive.
	removed, freed, err := d.GC(st.Bytes / 2)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 || removed >= st.Entries || freed == 0 {
		t.Fatalf("GC removed=%d freed=%d of %d entries; want partial eviction", removed, freed, st.Entries)
	}
	st2, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Entries != st.Entries-removed || st2.Bytes > st.Bytes/2 {
		t.Fatalf("post-GC stats: entries=%d bytes=%d, want %d entries under %d bytes",
			st2.Entries, st2.Bytes, st.Entries-removed, st.Bytes/2)
	}
	if st2.Evicts != int64(removed) {
		t.Fatalf("evict counter %d != removed %d", st2.Evicts, removed)
	}
	// Eviction followed the LRU order: the oldest entries went first.
	for i, path := range paths {
		_, statErr := os.Stat(path)
		if evicted := os.IsNotExist(statErr); evicted != (i < removed) {
			t.Errorf("entry %d (of %d, oldest first): evicted=%v after removing %d", i, len(paths), evicted, removed)
		}
	}
	// GC(0) empties the cache entirely.
	if _, _, err := d.GC(0); err != nil {
		t.Fatal(err)
	}
	st3, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st3.Entries != 0 || st3.Bytes != 0 {
		t.Fatalf("GC(0) left entries=%d bytes=%d", st3.Entries, st3.Bytes)
	}
}

// TestDiskCacheSizeBound pins automatic post-write eviction: with a
// byte bound set, the directory never ends a run over the bound.
func TestDiskCacheSizeBound(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.SetMaxBytes(1) // every write immediately evicts down to <=1 byte
	rep := Verify(zoo(), Options{Core: coreOpts(), DiskCache: d})
	if rep.DiskMisses != len(zoo()) {
		t.Fatalf("misses=%d, want %d", rep.DiskMisses, len(zoo()))
	}
	st, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes > 1 {
		t.Fatalf("size bound not enforced: %d bytes remain", st.Bytes)
	}
	if st.Evicts == 0 {
		t.Fatal("no evictions recorded under a 1-byte bound")
	}
}

// TestDiskCacheMemoryLayerPriority: within one run, structural twins
// resolve through the in-memory singleflight layer — the disk sees one
// lookup per distinct key, not per item.
func TestDiskCacheMemoryLayerPriority(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	items := []Item{
		{Name: "one", Circuit: designs.InverterChain(8)},
		{Name: "two", Circuit: designs.InverterChain(8)},
		{Name: "three", Circuit: designs.InverterChain(8)},
	}
	rep := Verify(items, Options{Core: coreOpts(), DiskCache: d})
	if rep.Hits != 2 || rep.Misses != 1 {
		t.Fatalf("memory layer: hits=%d misses=%d, want 2/1", rep.Hits, rep.Misses)
	}
	if rep.DiskMisses != 1 || rep.DiskHits != 0 {
		t.Fatalf("disk layer: hits=%d misses=%d, want 0/1", rep.DiskHits, rep.DiskMisses)
	}
	if n := len(entryFiles(t, dir)); n != 1 {
		t.Fatalf("%d entries on disk, want 1", n)
	}
}
