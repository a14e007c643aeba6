package serve

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
)

func parseItems(t *testing.T, deck string) deckLoad {
	t.Helper()
	items, err := fleet.ItemsFromDeck(strings.NewReader(deck), "deck.sp", "", false)
	if err != nil {
		t.Fatal(err)
	}
	return deckLoad{items: items}
}

// TestParseCacheLRU exercises the unit: hit after put, recency refresh
// and LRU eviction.
func TestParseCacheLRU(t *testing.T) {
	ld := parseItems(t, cleanDeck)
	c := newParseCache(2)
	if _, ok := c.get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.put("a", ld)
	c.put("b", ld)
	if got, ok := c.get("a"); !ok || len(got.items) != len(ld.items) {
		t.Fatal("miss after put")
	}
	// "a" was just refreshed, so inserting "c" must evict "b".
	c.put("c", ld)
	if _, ok := c.get("b"); ok {
		t.Error("LRU entry not evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("recently-used entry evicted")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

// TestParseCacheCountersOnRepeat a byte-identical resubmit is a parse
// hit; a different ?top selection on the same bytes is a distinct key.
func TestParseCacheCountersOnRepeat(t *testing.T) {
	s, hs := newTestServer(t, testConfig())
	postDeck(t, hs.URL+"/verify", cleanDeck)
	postDeck(t, hs.URL+"/verify", cleanDeck)
	st := s.StatsNow()
	if st.Counters["serve.parse_cache.miss"] != 1 || st.Counters["serve.parse_cache.hit"] != 1 {
		t.Errorf("parse cache hit=%d miss=%d after identical resubmit, want 1/1",
			st.Counters["serve.parse_cache.hit"], st.Counters["serve.parse_cache.miss"])
	}
	// Same bytes, different parse parameters: a new key, a new miss.
	postDeck(t, hs.URL+"/verify?cells=1", cleanDeck)
	st = s.StatsNow()
	if st.Counters["serve.parse_cache.miss"] != 2 {
		t.Errorf("cells=1 on same bytes missed %d times, want 2 total", st.Counters["serve.parse_cache.miss"])
	}
}

// TestParseCacheStoresKeys: a flat load enters the parse cache with
// every item keyed on its circuit's fingerprint, so a warm repeat goes
// to the fleet cache without refining the circuit again, and the warm
// answer's findings and fingerprints equal the cold one's.
func TestParseCacheStoresKeys(t *testing.T) {
	s, hs := newTestServer(t, testConfig())
	_, coldBody := postDeck(t, hs.URL+"/verify", raceDeck)
	s.parses.mu.Lock()
	keyed := 0
	for _, el := range s.parses.entries {
		for _, it := range el.Value.(*parsed).ld.items {
			if it.Key != it.Circuit.Fingerprint() {
				t.Errorf("parse-cache item %s: Key %s, want its fingerprint %s", it.Name, it.Key.Short(), it.Circuit.Fingerprint().Short())
			}
			keyed++
		}
	}
	s.parses.mu.Unlock()
	if keyed != 1 {
		t.Fatalf("parse cache holds %d items after one POST, want 1", keyed)
	}

	_, warmBody := postDeck(t, hs.URL+"/verify", raceDeck)
	if hit := s.StatsNow().Counters["serve.parse_cache.hit"]; hit != 1 {
		t.Fatalf("warm repeat: parse-cache hits = %d, want 1", hit)
	}
	cold, err := obs.ParseManifest(coldBody)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := obs.ParseManifest(warmBody)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Items) != 1 || len(warm.Items) != 1 || len(cold.Items[0].Findings) == 0 {
		t.Fatalf("want one item with findings in each answer, got cold %+v warm %+v", cold.Items, warm.Items)
	}
	if !warm.Items[0].Cached {
		t.Error("warm repeat was not a fleet cache hit")
	}
	if warm.Items[0].Fingerprint != cold.Items[0].Fingerprint {
		t.Errorf("fingerprint: warm %s, cold %s", warm.Items[0].Fingerprint, cold.Items[0].Fingerprint)
	}
	if !reflect.DeepEqual(warm.Items[0].Findings, cold.Items[0].Findings) {
		t.Errorf("warm findings differ from cold:\nwarm %+v\ncold %+v", warm.Items[0].Findings, cold.Items[0].Findings)
	}
}
