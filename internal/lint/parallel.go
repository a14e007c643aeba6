package lint

import (
	"fmt"
	"sort"

	"repro/internal/netlist"
	"repro/internal/par"
)

// LibraryOptions configures a whole-library lint run.
type LibraryOptions struct {
	Options
	// Roots are the cell names the design is entered through. Cells
	// unreachable from any root get an FCV008 finding. Empty means
	// every cell no other cell instantiates is a root (so FCV008 stays
	// silent — everything is its own entry point).
	Roots []string
	// Workers caps lint concurrency (0: GOMAXPROCS).
	Workers int
}

// LintLibrary lints every cell of a library concurrently: each cell is
// flattened and run through the rule set as one job on par's worker
// pool, plus the library-level FCV008 unused-cell analysis. The merged
// report is deterministic — ordered by cell, rule, subject — regardless
// of goroutine scheduling, so repeated runs are byte-identical.
func LintLibrary(lib *netlist.Library, opt LibraryOptions) (*Report, error) {
	cells := lib.Cells()

	// Waivers mutate shared state (used-entry tracking) and must also
	// see final cell names; apply them once after the merge instead of
	// inside the per-cell runs.
	cellOpt := opt.Options
	cellOpt.Waivers = nil

	diags := make([][]Diag, len(cells))
	errs := make([]error, len(cells))
	par.Do(len(cells), par.Workers(opt.Workers, len(cells)), func(i int) {
		diags[i], errs[i] = lintCell(lib, cells[i], cellOpt)
	})

	var merged []Diag
	for i, name := range cells {
		if errs[i] != nil {
			return nil, fmt.Errorf("lint: cell %s: %w", name, errs[i])
		}
		merged = append(merged, diags[i]...)
	}
	merged = append(merged, unusedCells(lib, opt.Roots)...)
	applyWaivers(merged, opt.Waivers)
	sortDiags(merged)
	return &Report{Diags: merged}, nil
}

// lintCell flattens one cell and runs the per-circuit rules on it. The
// flat circuit is renamed back to the cell name so diagnostics and
// waivers see the name the designer wrote, not the ".flat" suffix.
func lintCell(lib *netlist.Library, name string, opt Options) ([]Diag, error) {
	flat, err := lib.Flatten(name)
	if err != nil {
		return nil, err
	}
	flat.Name = name
	rep, err := Run(flat, opt)
	if err != nil {
		return nil, err
	}
	return rep.Diags, nil
}

// unusedCells implements FCV008: cells unreachable from the roots
// through instantiation. With no roots given, every uninstantiated cell
// counts as an entry point and nothing is reported.
func unusedCells(lib *netlist.Library, roots []string) []Diag {
	cells := lib.Cells()
	instantiates := make(map[string][]string, len(cells))
	instantiated := make(map[string]bool)
	for _, name := range cells {
		for _, inst := range lib.Cell(name).Instances {
			instantiates[name] = append(instantiates[name], inst.Cell)
			instantiated[inst.Cell] = true
		}
	}
	if len(roots) == 0 {
		for _, name := range cells {
			if !instantiated[name] {
				roots = append(roots, name)
			}
		}
	}
	reached := make(map[string]bool)
	var visit func(string)
	visit = func(name string) {
		if reached[name] || lib.Cell(name) == nil {
			return
		}
		reached[name] = true
		for _, child := range instantiates[name] {
			visit(child)
		}
	}
	for _, root := range roots {
		visit(root)
	}
	meta := ruleByID(UnusedCellRuleID)
	var out []Diag
	for _, name := range cells {
		if reached[name] {
			continue
		}
		out = append(out, Diag{
			Rule:     meta.ID(),
			Severity: meta.Severity(),
			Cell:     name,
			Subject:  name,
			Loc:      lib.Cell(name).Loc,
			Message:  fmt.Sprintf("cell %s is defined but unreachable from the design top", name),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cell < out[j].Cell })
	return out
}
