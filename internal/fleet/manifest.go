package fleet

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// BuildManifest assembles the run manifest from a fleet report and its
// telemetry collector: the collector contributes the span tree,
// counters, gauges and histograms; the report contributes the corpus
// half (items with their provenanced findings, verdict tallies,
// workers, wall clock, config key). Every fcv manifest producer —
// verify, bench, the serve daemon — goes through here so the documents
// stay diffable against each other.
func BuildManifest(tool string, rep *Report, col *obs.Collector) *obs.Manifest {
	m := obs.NewManifest(tool, rep.ConfigKey, col)
	m.Workers = rep.Workers
	m.WallMS = float64(rep.Elapsed.Microseconds()) / 1000
	for _, res := range rep.Results {
		m.Items = append(m.Items, obs.ManifestItem{
			Name:        res.Name,
			Fingerprint: res.Fingerprint.String(),
			Verdict:     res.VerdictString(),
			Cached:      res.Cached,
			ElapsedMS:   float64(res.Elapsed.Microseconds()) / 1000,
			Findings:    res.Findings(),
			Subcell:     res.Subcell,
			Parent:      res.Parent,
			DiskHit:     res.DiskHit,
		})
	}
	p, i, v, f := rep.Counts()
	m.Verdicts = obs.VerdictTally{Pass: p, Inspect: i, Violation: v, Error: f}
	return m
}

// ItemsFromDeck parses one SPICE deck from r and returns its fleet
// items. The root follows HierFromDeck's top-cell rule, and an element
// soup chosen as the root joins the library as a cell. Without cells
// the root is flattened into the one item; with cells every library cell
// becomes an item, and naming a top is an error. srcName labels parse
// locations (and so lint findings) exactly like a file path would, so a
// daemon reading the deck off the wire under the deck's own name
// produces findings byte-identical to a batch run over the file.
func ItemsFromDeck(r io.Reader, srcName, top string, cells bool) ([]Item, error) {
	if cells && top != "" {
		return nil, fmt.Errorf("fleet: deck %s: a top cell applies only without cells", srcName)
	}
	lib, root, err := HierFromDeck(r, srcName, top)
	if err != nil {
		return nil, err
	}
	if lib.Cell(root.Name) != root {
		lib.Add(root)
	}
	if cells {
		items, errs := CorpusFromLibrary(lib)
		if len(errs) > 0 {
			return nil, errs[0]
		}
		return items, nil
	}
	flat, err := lib.Flatten(root.Name)
	if err != nil {
		return nil, err
	}
	return []Item{{Name: flat.Name, Circuit: flat}}, nil
}
