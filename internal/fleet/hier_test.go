package fleet

import (
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/hier"
	"repro/internal/netlist"
)

// hierFindingIDs collects every finding ID across a report, sorted.
func hierFindingIDs(rep *Report) []string {
	var ids []string
	for i := range rep.Results {
		for _, f := range rep.Results[i].Findings() {
			ids = append(ids, f.ID)
		}
	}
	sort.Strings(ids)
	return ids
}

// TestVerifyHierMatchesFlat: on a clean deep hierarchy the composed
// hierarchical outcome must be indistinguishable from whole-netlist
// verification — same top verdict, same (empty) finding set.
func TestVerifyHierMatchesFlat(t *testing.T) {
	lib, top := designs.DeepTree(3, 4, 0)
	topC := lib.Cell(top)
	hrep, err := VerifyHier(lib, topC, Options{Core: coreOpts(), Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := lib.Flatten(top)
	if err != nil {
		t.Fatal(err)
	}
	frep := Verify([]Item{{Name: top, Circuit: flat}}, Options{Core: coreOpts()})

	topRes := &hrep.Results[len(hrep.Results)-1]
	if topRes.Subcell != top {
		t.Fatalf("last hier result is %q, want top %q", topRes.Subcell, top)
	}
	if got, want := topRes.VerdictString(), frep.Results[0].VerdictString(); got != want {
		t.Fatalf("composed top verdict %q, flat verdict %q", got, want)
	}
	hIDs, fIDs := hierFindingIDs(hrep), hierFindingIDs(frep)
	if len(hIDs) != 0 || len(fIDs) != 0 {
		t.Fatalf("corpus not clean: hier findings %v, flat findings %v", hIDs, fIDs)
	}
	// Every cell of the hierarchy must appear as a subcell item exactly
	// once, children before parents.
	seen := map[string]bool{}
	for i := range hrep.Results {
		res := &hrep.Results[i]
		if res.Subcell == "" || seen[res.Subcell] {
			t.Fatalf("result %d: bad subcell %q (dup=%v)", i, res.Subcell, seen[res.Subcell])
		}
		seen[res.Subcell] = true
	}
	if topRes.ComposedFrom == 0 {
		t.Fatal("top result composed from no children")
	}
}

// TestVerifyHierFindsLeafDefect: a defect inside one leaf must surface
// through hierarchical verification with the same composed top verdict
// whole-netlist verification reaches.
func TestVerifyHierFindsLeafDefect(t *testing.T) {
	lib, top := designs.DeepTree(3, 3, 3.0) // leaf v0 badly beta-skewed
	topC := lib.Cell(top)
	hrep, err := VerifyHier(lib, topC, Options{Core: coreOpts(), Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := lib.Flatten(top)
	if err != nil {
		t.Fatal(err)
	}
	frep := Verify([]Item{{Name: top, Circuit: flat}}, Options{Core: coreOpts()})
	if len(hierFindingIDs(frep)) == 0 {
		t.Skip("tweak produced no flat finding; corpus defect assumption broken")
	}
	if len(hierFindingIDs(hrep)) == 0 {
		t.Fatal("hier run missed the leaf defect whole-netlist verification found")
	}
	topRes := &hrep.Results[len(hrep.Results)-1]
	if got, want := topRes.VerdictString(), frep.Results[0].VerdictString(); got != want {
		t.Fatalf("composed top verdict %q, flat verdict %q", got, want)
	}
	// The defect must be attributed to the edited leaf's subcell item.
	var found bool
	for i := range hrep.Results {
		res := &hrep.Results[i]
		if res.Subcell == "dt_l0_v0" && len(res.Findings()) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("defect not attributed to leaf subcell dt_l0_v0")
	}
}

// TestVerifyHierDeterministicAcrossWorkers: the hierarchical report —
// items, fingerprints, verdicts, provenance, findings — is identical at
// any worker count.
func TestVerifyHierDeterministicAcrossWorkers(t *testing.T) {
	lib, top := designs.DeepTree(3, 4, 0)
	topC := lib.Cell(top)
	type row struct {
		name, fp, verdict, subcell, parent string
		composed                           int
	}
	var want []row
	var wantText string
	for _, workers := range []int{1, 4, 16} {
		rep, err := VerifyHier(lib, topC, Options{Core: coreOpts(), Cache: NewCache(), Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var got []row
		for i := range rep.Results {
			res := &rep.Results[i]
			got = append(got, row{res.Name, res.Fingerprint.String(), res.VerdictString(),
				res.Subcell, res.Parent, res.ComposedFrom})
		}
		if want == nil {
			want, wantText = got, rep.Text()
			continue
		}
		if rep.Text() != wantText {
			t.Fatalf("workers=%d: report text differs:\n%s\nvs\n%s", workers, rep.Text(), wantText)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result %d differs: %+v vs %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestVerifyHierWarmEditMissPattern is the incremental contract: after
// a one-leaf edit, a warm re-verify sharing the cache misses exactly
// the edited leaf and the cells on its path to the root, and replays
// every other subcell from cache.
func TestVerifyHierWarmEditMissPattern(t *testing.T) {
	cache := NewCache()
	cold, coldTop := designs.DeepTree(4, 3, 0)
	if _, err := VerifyHier(cold, cold.Cell(coldTop), Options{Core: coreOpts(), Cache: cache}); err != nil {
		t.Fatal(err)
	}
	edited, top := designs.DeepTree(4, 3, 0.1)
	rep, err := VerifyHier(edited, edited.Cell(top), Options{Core: coreOpts(), Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	wantMiss := map[string]bool{
		"dt_l0_v0": true, "dt_l1_v0": true, "dt_l2_v0": true, "dt_l3_v0": true, "dt_top": true,
	}
	for i := range rep.Results {
		res := &rep.Results[i]
		missed := !res.Cached && !res.DiskHit
		if missed != wantMiss[res.Subcell] {
			t.Errorf("subcell %s: miss=%v, want %v", res.Subcell, missed, wantMiss[res.Subcell])
		}
	}
	if got, want := rep.Misses, len(wantMiss); got != want {
		t.Errorf("warm re-verify misses = %d, want %d", got, want)
	}
}

// TestVerifyHierRenameInvariance: renaming a cell (and nothing else)
// must not invalidate any subcell cache entry except nothing at all —
// DAG keys are content-addressed, so the renamed run is all hits.
func TestVerifyHierRenameInvariance(t *testing.T) {
	cache := NewCache()
	lib, top := designs.DeepTree(3, 2, 0)
	if _, err := VerifyHier(lib, lib.Cell(top), Options{Core: coreOpts(), Cache: cache}); err != nil {
		t.Fatal(err)
	}
	// Rebuild the same hierarchy under different leaf cell names.
	lib2, _ := designs.DeepTree(3, 2, 0)
	renamed := netlist.NewLibrary()
	for _, name := range lib2.Cells() {
		c := lib2.Cell(name)
		if name == "dt_l0_v0" {
			c.Name = "leaf_zero"
		}
		renamed.Add(c)
	}
	for _, name := range renamed.Cells() {
		c := renamed.Cell(name)
		for _, inst := range c.Instances {
			if inst.Cell == "dt_l0_v0" {
				inst.Cell = "leaf_zero"
			}
		}
	}
	rep, err := VerifyHier(renamed, renamed.Cell(top), Options{Core: coreOpts(), Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Misses != 0 {
		for i := range rep.Results {
			res := &rep.Results[i]
			t.Logf("%s cached=%v", res.Subcell, res.Cached)
		}
		t.Fatalf("rename-only edit caused %d cache misses, want 0", rep.Misses)
	}
}

// TestVerifyHierInlineCutoffKeying: the inlining cutoff shapes every
// kept cell's scope (it decides which children fold in vs become
// ports), so two runs with different cutoffs sharing one cache must
// never alias entries — the shared-cache run reproduces the
// fresh-cache outcome and replays nothing from the other
// configuration.
func TestVerifyHierInlineCutoffKeying(t *testing.T) {
	cache := NewCache()
	lib, top := designs.DeepTree(3, 2, 0)
	repA, err := VerifyHier(lib, lib.Cell(top), Options{Core: coreOpts(), Cache: cache, HierInline: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Cutoff 100 inlines the ~50-device leaves that cutoff -1 kept, so
	// the kept parents share DAG keys across the two runs while their
	// scopes differ materially.
	repB, err := VerifyHier(lib, lib.Cell(top), Options{Core: coreOpts(), Cache: cache, HierInline: 100})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := VerifyHier(lib, lib.Cell(top), Options{Core: coreOpts(), Cache: NewCache(), HierInline: 100})
	if err != nil {
		t.Fatal(err)
	}
	if repA.ConfigKey == repB.ConfigKey {
		t.Fatalf("config keys alias across cutoffs: %q", repA.ConfigKey)
	}
	if len(repB.Results) >= len(repA.Results) {
		t.Fatalf("cutoff 100 kept %d units, want fewer than cutoff -1's %d (corpus assumption broken)",
			len(repB.Results), len(repA.Results))
	}
	if repB.Text() != ref.Text() {
		t.Fatalf("shared-cache run differs from fresh-cache run:\n%svs\n%s", repB.Text(), ref.Text())
	}
	if repB.Misses != ref.Misses {
		t.Fatalf("shared-cache run replayed %d entries from the other cutoff's configuration (misses=%d, want %d)",
			ref.Misses-repB.Misses, repB.Misses, ref.Misses)
	}
}

// TestCacheEntryHoldsHierMemos: a subcell's composition memos live on
// its own cache entry. After a cold VerifyHier — four of them racing on
// one cache, as daemon requests do — every kept non-top cell's entry
// holds its port interface and every composed cell's entry its boundary
// findings, and a warm re-run re-derives none of them.
func TestCacheEntryHoldsHierMemos(t *testing.T) {
	cache := NewCache()
	lib, top := designs.DeepTree(3, 2, 0)
	verify := func() (*Report, error) {
		return VerifyHier(lib, lib.Cell(top), Options{Core: coreOpts(), Cache: cache})
	}
	memos := func(rep *Report) map[string]*hier.Interface {
		ifcs := map[string]*hier.Interface{}
		for i := range rep.Results {
			res := &rep.Results[i]
			found := false
			cache.withEntry(res.Fingerprint, rep.ConfigKey, func(e *cacheEntry) {
				found = true
				if res.Subcell != top && e.ifc == nil {
					t.Errorf("%s: entry holds no port interface", res.Subcell)
				}
				if res.ComposedFrom > 0 && e.boundary == nil {
					t.Errorf("%s: composed cell's entry holds no boundary findings", res.Subcell)
				}
				ifcs[res.Subcell] = e.ifc
			})
			if !found {
				t.Errorf("%s: no cache entry under its DAG key", res.Subcell)
			}
		}
		return ifcs
	}
	var wg sync.WaitGroup
	reps := make([]*Report, 4)
	errs := make([]error, len(reps))
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = verify()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	cold := reps[0]
	if last := cold.Results[len(cold.Results)-1]; len(cold.Results) < 3 || last.ComposedFrom == 0 {
		t.Fatalf("%d units, top composed from %d: corpus assumption broken", len(cold.Results), last.ComposedFrom)
	}
	coldIfcs := memos(cold)
	warm, err := verify()
	if err != nil {
		t.Fatal(err)
	}
	if warm.Misses != 0 {
		t.Fatalf("warm re-run missed %d entries, want 0", warm.Misses)
	}
	for name, ifc := range memos(warm) {
		if ifc != coldIfcs[name] {
			t.Errorf("%s: port interface re-derived on the warm run", name)
		}
	}
}

// TestVerifyHierFallbackFlat: a design without hierarchy goes through
// whole-netlist verification — one unsalted item, no subcell fields.
func TestVerifyHierFallbackFlat(t *testing.T) {
	lib := netlist.NewLibrary()
	c := designs.InverterChain(12)
	lib.Add(c)
	rep, err := VerifyHier(lib, c, Options{Core: coreOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("%d results, want 1", len(rep.Results))
	}
	if rep.Results[0].Subcell != "" {
		t.Fatalf("flat fallback set Subcell=%q", rep.Results[0].Subcell)
	}
	flat := Verify([]Item{{Name: c.Name, Circuit: c}}, Options{Core: coreOpts()})
	if rep.Results[0].VerdictString() != flat.Results[0].VerdictString() {
		t.Fatalf("fallback verdict %s != flat verdict %s",
			rep.Results[0].VerdictString(), flat.Results[0].VerdictString())
	}
}

// TestVerifyHierBoundaryFindings: the top of boundary_fights.sp holds
// two structurally identical inverter pairs fighting on n1 and n2. The
// composed cell numbers the repeated boundary finding, so each fight
// keeps its own ID, and counts both in its inspect load.
func TestVerifyHierBoundaryFindings(t *testing.T) {
	const deck = "testdata/boundary_fights.sp"
	f, err := os.Open(deck)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lib, top, err := HierFromDeck(f, deck, "top")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyHier(lib, top, Options{Core: coreOpts(), Cache: NewCache(), HierInline: -1})
	if err != nil {
		t.Fatal(err)
	}
	res := &rep.Results[len(rep.Results)-1]
	if res.Subcell != "top" || res.Err != nil {
		t.Fatalf("last result is %q (err %v), want top", res.Subcell, res.Err)
	}
	var ids []string
	for _, f := range res.Findings() {
		if f.Source == "boundary" {
			ids = append(ids, f.ID)
		}
	}
	if len(ids) != 2 || !strings.HasPrefix(ids[0], "boundary/drive-fight@") || ids[1] != ids[0]+"#2" {
		t.Fatalf("boundary finding IDs = %v, want a bare drive-fight ID and its #2", ids)
	}
	if got := res.InspectLoad(); got != 2 || res.Report.InspectLoad != 0 {
		t.Errorf("InspectLoad() = %d over a scope load of %d, want the 2 boundary findings alone", got, res.Report.InspectLoad)
	}
	if !strings.Contains(rep.Text(), " inspect=2 ") {
		t.Errorf("report text lacks inspect=2:\n%s", rep.Text())
	}
}
