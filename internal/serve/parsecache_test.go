package serve

import (
	"strings"
	"testing"

	"repro/internal/fleet"
)

func parseItems(t *testing.T, deck string) []fleet.Item {
	t.Helper()
	items, err := fleet.ItemsFromDeck(strings.NewReader(deck), "deck.sp", "", false)
	if err != nil {
		t.Fatal(err)
	}
	return items
}

// TestParseCacheLRU exercises the unit: hit after put, recency refresh
// and LRU eviction.
func TestParseCacheLRU(t *testing.T) {
	items := parseItems(t, cleanDeck)
	c := newParseCache(2)
	if _, ok := c.get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.put("a", items)
	c.put("b", items)
	if got, ok := c.get("a"); !ok || len(got) != len(items) {
		t.Fatal("miss after put")
	}
	// "a" was just refreshed, so inserting "c" must evict "b".
	c.put("c", items)
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
