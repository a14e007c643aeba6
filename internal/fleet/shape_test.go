package fleet

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/designs"
)

// warnDeck is a cell whose lint diagnostics are all warnings (FCV005 on
// dyn, FCV004 on stub), so the lint gate passes and surviving lint
// findings reach the settled outcome.
const warnDeck = `.subckt warn_cell in clk out bufo
mfp  out in    vdd vdd pmos w=4 l=0.75
mfn  out in    vss vss nmos w=2 l=0.75
mpre dyn clk   vdd vdd pmos w=4 l=0.75
mev  dyn in    vss vss nmos w=6 l=0.75
mbn  bufo dyn  vss vss nmos w=2 l=0.75
mbp  bufo dyn  vdd vdd pmos w=4 l=0.75
mdg  stub in   vss vss nmos w=2 l=0.75
.ends
`

// warnItems returns warnDeck's one flat item.
func warnItems(t *testing.T) []Item {
	t.Helper()
	items, err := ItemsFromDeck(strings.NewReader(warnDeck), "warn.sp", "", false)
	if err != nil {
		t.Fatal(err)
	}
	return items
}

// TestConcurrentManifestsShareEntry builds manifests concurrently from
// results that share one cache entry — settled by a miss, and loaded by
// a disk hit — under -race. Timing findings carry nil evidence device
// lists, which a manifest fills in; an entry's shared findings must
// already be filled, so that building a manifest only reads them.
func TestConcurrentManifestsShareEntry(t *testing.T) {
	items := []Item{{Name: "racy", Circuit: designs.LatchPipeline(4, true)}}
	dir := t.TempDir()
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	missCache := NewCache()
	if rep := Verify(items, Options{Core: coreOpts(), Cache: missCache, DiskCache: d}); rep.DiskMisses != 1 {
		t.Fatalf("first run: disk misses=%d, want 1", rep.DiskMisses)
	}
	diskCache := NewCache()
	if rep := Verify(items, Options{Core: coreOpts(), Cache: diskCache, DiskCache: d}); rep.DiskHits != 1 {
		t.Fatalf("second run: disk hits=%d, want 1", rep.DiskHits)
	}
	for name, cache := range map[string]*Cache{"miss": missCache, "disk-hit": diskCache} {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep := Verify(items, Options{Core: coreOpts(), Cache: cache})
				if len(rep.Results[0].Findings()) == 0 {
					t.Errorf("%s entry: no findings; the racy pipeline should have hold violations", name)
				}
				if _, err := BuildManifest("test", rep, nil).CompactJSON(); err != nil {
					t.Errorf("%s entry: %v", name, err)
				}
			}()
		}
		wg.Wait()
	}
}

// TestSettledEntriesKeepNoStageDetail pins what the memory cache holds:
// after a miss, a memory hit and a disk hit, flat and hierarchical, every
// entry's report — which every result of its key carries — is the
// settled skeleton, holding no recognized circuit, check or lint report,
// analyzed circuit or timing paths.
func TestSettledEntriesKeepNoStageDetail(t *testing.T) {
	lintOpts := coreOpts()
	lintOpts.Lint = true
	lib, top := designs.DeepTree(3, 3, 3.0)
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, opt Options) (*Report, error)
	}{
		{"flat", func(_ *testing.T, opt Options) (*Report, error) {
			return Verify(append(diskZoo(), Item{Name: "racy", Circuit: designs.LatchPipeline(4, true)}), opt), nil
		}},
		{"flat-lint", func(t *testing.T, opt Options) (*Report, error) {
			opt.Core = lintOpts
			return Verify(warnItems(t), opt), nil
		}},
		{"hier", func(_ *testing.T, opt Options) (*Report, error) {
			return VerifyHier(lib, lib.Cell(top), opt)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := OpenDiskCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			cold := NewCache()
			warm := NewCache()
			for _, pass := range []struct {
				label string
				cache *Cache
				took  func(rep *Report) bool
			}{
				{"miss", cold, func(rep *Report) bool { return rep.Misses > 0 && rep.DiskMisses == rep.Misses }},
				{"memory hit", cold, func(rep *Report) bool { return rep.Misses == 0 && rep.Hits == len(rep.Results) }},
				{"disk hit", warm, func(rep *Report) bool { return rep.Misses > 0 && rep.DiskHits == rep.Misses }},
			} {
				rep, err := tc.run(t, Options{Core: coreOpts(), Cache: pass.cache, DiskCache: d, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				if !pass.took(rep) {
					t.Fatalf("%s pass: hits=%d misses=%d disk hits=%d disk misses=%d", pass.label, rep.Hits, rep.Misses, rep.DiskHits, rep.DiskMisses)
				}
				for i := range rep.Results {
					res := &rep.Results[i]
					if res.Err != nil {
						t.Fatalf("%s: %s: %v", pass.label, res.Name, res.Err)
					}
					if detail := stageDetail(res.Report); detail != "" {
						t.Errorf("%s: result %s keeps %s", pass.label, res.Name, detail)
					}
				}
				pass.cache.mu.Lock()
				for key, e := range pass.cache.entries {
					if detail := stageDetail(e.rep); detail != "" {
						t.Errorf("%s: entry %s keeps %s", pass.label, key.fp.Short(), detail)
					}
					if e.circuit != nil || e.sigs != nil || e.opt.Proc != nil {
						t.Errorf("%s: entry %s keeps its verification inputs", pass.label, key.fp.Short())
					}
				}
				pass.cache.mu.Unlock()
			}
		})
	}
}

// stageDetail names the first piece of stage-level detail a settled
// report keeps, or returns "" for a skeleton.
func stageDetail(rep *core.Report) string {
	switch {
	case rep == nil:
		return "no report"
	case rep.Recognition != nil:
		return "Recognition"
	case rep.Checks != nil:
		return "Checks"
	case rep.Lint != nil:
		return "Lint"
	case rep.Timing == nil:
		return "no Timing"
	case rep.Timing.Circuit != nil:
		return "Timing.Circuit"
	case rep.Timing.Paths != nil:
		return "Timing.Paths"
	}
	return ""
}

// TestDiskEntryWithPathsLoads: an entry that still carries the "paths"
// count older entries stored loads as a disk hit, and replays the same
// outcome as the miss that wrote it.
func TestDiskEntryWithPathsLoads(t *testing.T) {
	items := []Item{{Name: "adder16", Circuit: designs.DominoAdder(16)}}
	dir := t.TempDir()
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	miss := Verify(items, Options{Core: coreOpts(), DiskCache: d})
	if miss.DiskMisses != 1 || miss.Results[0].Err != nil {
		t.Fatalf("first run: disk misses=%d, err=%v", miss.DiskMisses, miss.Results[0].Err)
	}
	files := entryFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d entry files, want 1", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var entry map[string]any
	if err := json.Unmarshal(data, &entry); err != nil {
		t.Fatal(err)
	}
	if _, ok := entry["paths"]; ok {
		t.Fatal(`a new entry still stores "paths"`)
	}
	entry["paths"] = 32
	if data, err = json.Marshal(entry); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	hit := Verify(items, Options{Core: coreOpts(), DiskCache: d})
	if hit.DiskHits != 1 || hit.DiskCorrupt != 0 {
		t.Fatalf("fixture entry: disk hits=%d corrupt=%d, want 1/0", hit.DiskHits, hit.DiskCorrupt)
	}
	if got, want := hit.Text(), miss.Text(); got != want {
		t.Errorf("fixture entry replays\n%s\nthe miss reported\n%s", got, want)
	}
	if got, want := hit.Results[0].Findings(), miss.Results[0].Findings(); !reflect.DeepEqual(got, want) {
		t.Errorf("fixture entry replays %d findings, the miss reported %d", len(got), len(want))
	}
	if detail := stageDetail(hit.Results[0].Report); detail != "" {
		t.Errorf("fixture entry's report keeps %s", detail)
	}
}
