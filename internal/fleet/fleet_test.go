package fleet

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/process"
)

// zoo returns the standard design corpus in fixed order.
func zoo() []Item {
	return []Item{
		{Name: "invchain", Circuit: designs.InverterChain(12)},
		{Name: "adder16", Circuit: designs.DominoAdder(16)},
		{Name: "pipeline", Circuit: designs.LatchPipeline(6, false)},
		{Name: "sram16x8", Circuit: designs.SRAMArray(16, 8, 0.09)},
		{Name: "passmux8", Circuit: designs.PassMux(8)},
	}
}

func coreOpts() core.Options {
	return core.Options{Proc: process.CMOS075()}
}

// TestDeterministicAcrossWorkerCounts is the fleet's core contract: the
// merged report text is byte-identical across runs and -j values, with
// and without the cache. Run under -race this also exercises the
// worker pool and the singleflight cache concurrently.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	var want string
	for _, workers := range []int{1, 4, 16} {
		for _, cached := range []bool{false, true} {
			opt := Options{Core: coreOpts(), Workers: workers}
			if cached {
				opt.Cache = NewCache()
			}
			rep := Verify(zoo(), opt)
			got := rep.Text()
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("report text differs at workers=%d cache=%v:\n--- first run ---\n%s--- this run ---\n%s",
					workers, cached, want, got)
			}
		}
	}
	if want == "" {
		t.Fatal("no report produced")
	}
}

// TestCacheHitsAndMisses pins the cache arithmetic: a cold pass over n
// distinct designs is n misses; a second pass over the same corpus and
// cache is n hits, and the hit counter never decreases as passes repeat.
func TestCacheHitsAndMisses(t *testing.T) {
	cache := NewCache()
	items := zoo()
	opt := Options{Core: coreOpts(), Workers: 4, Cache: cache}

	first := Verify(items, opt)
	if first.Misses != len(items) || first.Hits != 0 {
		t.Errorf("cold pass: hits=%d misses=%d, want 0/%d", first.Hits, first.Misses, len(items))
	}
	if cache.Len() != len(items) {
		t.Errorf("cache entries = %d, want %d", cache.Len(), len(items))
	}

	// Cumulative hits across repeated warm passes grow monotonically:
	// every pass over an already-cached corpus is all hits, no misses.
	cumulative := first.Hits
	for pass := 0; pass < 3; pass++ {
		rep := Verify(items, opt)
		if rep.Misses != 0 || rep.Hits != len(items) {
			t.Errorf("warm pass %d: hits=%d misses=%d, want %d/0", pass, rep.Hits, rep.Misses, len(items))
		}
		if cumulative+rep.Hits <= cumulative {
			t.Errorf("cumulative hit counter not monotone on pass %d", pass)
		}
		cumulative += rep.Hits
		for _, res := range rep.Results {
			if !res.Cached {
				t.Errorf("warm pass %d: %s not served from cache", pass, res.Name)
			}
		}
	}
}

// TestCacheSharesStructuralTwins verifies fingerprint-level sharing: a
// corpus listing the same structure twice under different item names
// (and with renamed nodes) verifies once — through a caller's cache or,
// with none given, through the run-local one.
func TestCacheSharesStructuralTwins(t *testing.T) {
	for _, cache := range []*Cache{NewCache(), nil} {
		a := designs.InverterChain(8)
		b := designs.InverterChain(8)
		items := []Item{{Name: "left", Circuit: a}, {Name: "right", Circuit: b}}
		rep := Verify(items, Options{Core: coreOpts(), Workers: 2, Cache: cache})
		if rep.Misses != 1 || rep.Hits != 1 {
			t.Errorf("structural twins (cache %v): hits=%d misses=%d, want 1/1", cache != nil, rep.Hits, rep.Misses)
		}
		if rep.Results[0].Cached || !rep.Results[1].Cached {
			t.Errorf("structural twins (cache %v): cached=%v/%v, want the later twin cached",
				cache != nil, rep.Results[0].Cached, rep.Results[1].Cached)
		}
		if rep.Results[0].Fingerprint != rep.Results[1].Fingerprint {
			t.Error("identical structures got different fingerprints")
		}
	}
}

// TestConfigChangesInvalidate verifies that a process or clock change
// misses the cache even for an identical circuit.
func TestConfigChangesInvalidate(t *testing.T) {
	cache := NewCache()
	items := []Item{{Name: "chain", Circuit: designs.InverterChain(8)}}

	base := coreOpts()
	Verify(items, Options{Core: base, Cache: cache})

	low := coreOpts()
	low.Proc = process.CMOS050()
	rep := Verify(items, Options{Core: low, Cache: cache})
	if rep.Misses != 1 {
		t.Errorf("process change: misses=%d, want 1", rep.Misses)
	}

	clocked := coreOpts()
	clocked.Proc = low.Proc
	clocked.Clock = low.ResolvedClock() // the default, spelled out
	if clocked.Clock.PeriodPS == 0 {
		t.Fatal("resolved default clock is zero; the hit below would not test spelling it out")
	}
	rep2 := Verify(items, Options{Core: clocked, Cache: cache})
	if rep2.Hits != 1 {
		t.Errorf("explicitly spelling the resolved default clock should hit: hits=%d misses=%d", rep2.Hits, rep2.Misses)
	}
}

// TestPerItemErrorsDoNotAbort verifies a failing item (unflattened
// instances) is reported in place while the rest of the corpus
// completes, and that HasViolations flags the run.
func TestPerItemErrorsDoNotAbort(t *testing.T) {
	lib := netlist.NewLibrary()
	leaf := netlist.New("leaf")
	designs.AddInverter(leaf, "i0", "a", "y", 1, 2)
	leaf.DeclarePort("a")
	leaf.DeclarePort("y")
	lib.Add(leaf)
	broken := netlist.New("broken")
	broken.AddInstance("x0", "leaf", "a", "y") // never flattened
	items := []Item{
		{Name: "good", Circuit: designs.InverterChain(4)},
		{Name: "bad", Circuit: broken},
	}
	rep := Verify(items, Options{Core: coreOpts(), Workers: 2})
	if rep.Results[0].Err != nil {
		t.Errorf("good item errored: %v", rep.Results[0].Err)
	}
	if rep.Results[1].Err == nil {
		t.Error("unflattened item did not error")
	}
	if !rep.HasViolations() {
		t.Error("HasViolations must be true when an item errors")
	}
	_, _, _, failed := rep.Counts()
	if failed != 1 {
		t.Errorf("failed count = %d, want 1", failed)
	}
}

// TestCorpusFromLibrary flattens every cell of a small hierarchy in
// sorted order.
func TestCorpusFromLibrary(t *testing.T) {
	lib := netlist.NewLibrary()
	inv := netlist.New("inv")
	designs.AddInverter(inv, "i0", "a", "y", 1, 2)
	inv.DeclarePort("a")
	inv.DeclarePort("y")
	lib.Add(inv)
	buf := netlist.New("buf")
	buf.DeclarePort("a")
	buf.DeclarePort("y")
	buf.AddInstance("u0", "inv", "a", "m")
	buf.AddInstance("u1", "inv", "m", "y")
	lib.Add(buf)

	items, errs := CorpusFromLibrary(lib)
	if len(errs) != 0 {
		t.Fatalf("unexpected flatten errors: %v", errs)
	}
	if len(items) != 2 || items[0].Name != "buf" || items[1].Name != "inv" {
		t.Fatalf("items = %+v, want [buf inv]", items)
	}
	if len(items[0].Circuit.Instances) != 0 {
		t.Error("library corpus items must be flat")
	}
	rep := Verify(items, Options{Core: coreOpts(), Cache: NewCache()})
	if rep.HasViolations() {
		t.Errorf("trivial hierarchy should verify:\n%s", rep.Text())
	}
}

// TestPresetKeyMatchesKeyless: an item whose Key is preset to its
// circuit's fingerprint, as the daemon's parse cache stores it (core
// then computes the signature table), gives the same report text and
// manifest stable half as a keyless item (the fleet computes the table,
// keys on it and hands it to core), with and without the lint gate.
func TestPresetKeyMatchesKeyless(t *testing.T) {
	run := func(keyed, lint bool) (string, []byte) {
		items := zoo()
		if keyed {
			for i := range items {
				items[i].Key = items[i].Circuit.Fingerprint()
			}
		}
		copt := coreOpts()
		copt.Lint = lint
		rep := Verify(items, Options{Core: copt, Workers: 2})
		m := BuildManifest("test", rep, nil)
		m.WallMS = 0
		for i := range m.Items {
			m.Items[i].ElapsedMS = 0
		}
		b, err := m.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Text(), b
	}
	for _, lint := range []bool{false, true} {
		text, stable := run(false, lint)
		keyedText, keyedStable := run(true, lint)
		if keyedText != text {
			t.Errorf("lint=%v: report text differs with preset keys:\n--- keyless ---\n%s--- keyed ---\n%s", lint, text, keyedText)
		}
		if string(keyedStable) != string(stable) {
			t.Errorf("lint=%v: manifest stable half differs with preset keys", lint)
		}
		if !strings.Contains(string(stable), `"id": "check/`) {
			t.Errorf("lint=%v: corpus raised no check findings; the comparison has nothing to bite on", lint)
		}
	}
}

// TestLazyInvokedOnce pins Item.Lazy's at-most-once contract on every
// path: with Key set it defers to the actual miss, and without Key the
// fleet memoizes it so the up-front fingerprinting call is the only
// invocation — cached or not.
func TestLazyInvokedOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		key    bool
		cached bool
	}{
		{"nokey-nocache", false, false},
		{"nokey-cache", false, true},
		{"key-cache", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			circ := designs.InverterChain(8)
			it := Item{Name: "lazy", Lazy: func() (*netlist.Circuit, error) {
				calls++
				return circ, nil
			}}
			if tc.key {
				it.Key = circ.Fingerprint()
			}
			opt := Options{Core: coreOpts(), Workers: 1}
			if tc.cached {
				opt.Cache = NewCache()
			}
			rep := Verify([]Item{it}, opt)
			if rep.Results[0].Err != nil {
				t.Fatal(rep.Results[0].Err)
			}
			if calls != 1 {
				t.Errorf("Lazy invoked %d times, want 1", calls)
			}
		})
	}
}
