// Package lint is a rule-based static analyzer for transistor netlists —
// the front gate of the CBV pipeline.
//
// The paper's methodology (§2.3, §4.2) is built on tools that deduce
// constraints "automatically and conservatively … from the topology and
// context of the actual transistors", filter the circuits that are fine
// and report the ones that might not be. Simulation and timing can only
// do that for circuits that are structurally well formed; this package
// catches the defects that make them meaningless before they run:
// floating gates, nodes with no DC path to a rail, always-on supply
// sneak paths, keeperless dynamic nodes, dangling terminals.
//
// Every rule has a stable ID (FCV001…), a fixed default severity, and is
// deduced purely from netlist structure plus recognition results — no
// designer annotations required. Diagnostics carry cell, subject and the
// SPICE deck file:line of a representative element, render as text, JSON
// or SARIF 2.1.0, and can be waived individually for intentional
// violations (see Waivers).
package lint

import (
	"fmt"
	"sort"

	"repro/internal/dataflow"
	"repro/internal/netlist"
	"repro/internal/recognize"
)

// Severity classifies a diagnostic.
type Severity int

// Severities, ordered so higher is worse.
const (
	// Info is advisory: worth knowing, never wrong by itself.
	Info Severity = iota
	// Warn is a structure that works only under assumptions the linter
	// cannot verify (threshold drops, keeperless storage, huge fanout).
	Warn
	// Error is a structural defect: the circuit cannot behave as a
	// digital network (floating input, undrivable node, DC short).
	Error
)

// String returns the severity name.
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warn:
		return "warn"
	default:
		return "info"
	}
}

// Diag is one finding of one rule on one circuit object.
type Diag struct {
	// Rule is the stable rule ID ("FCV003").
	Rule string
	// Severity classifies the finding.
	Severity Severity
	// Cell names the circuit the finding is in.
	Cell string
	// Subject names the node, device or cell concerned — the handle a
	// waiver matches against.
	Subject string
	// Loc is the deck position of a representative element (zero for
	// programmatically built circuits).
	Loc netlist.Loc
	// Message is the human-readable explanation.
	Message string
	// Waived reports that a waiver matched; waived findings are kept in
	// reports (annotated) but never drive exit codes or the Verify gate.
	Waived bool
	// WaiverNote is the justification from the matching waiver entry.
	WaiverNote string
	// ID is the stable finding identity ("lint/<rule>@<16-hex>"):
	// rename-invariant because the hex half is the subject's structural
	// signature (netlist.Signatures). Structurally symmetric repeats
	// carry "#n" suffixes in report order.
	ID string
}

// Rule is one static check over an analyzed circuit.
type Rule interface {
	// ID is the stable identifier (FCVnnn).
	ID() string
	// Severity is the rule's default severity (individual diagnostics
	// may downgrade/upgrade, e.g. absurd-vs-nonpositive geometry).
	Severity() Severity
	// Title is a one-line description for rule tables and SARIF
	// metadata.
	Title() string
	// Check runs the rule, emitting diagnostics through the context.
	Check(ctx *Context)
}

// Options configures a lint run. Every run applies DefaultRules().
type Options struct {
	// Waivers suppresses matching findings (nil: nothing waived).
	Waivers *Waivers
	// FanoutLimit is the FCV010 gate-fanout ceiling (0: default 64).
	FanoutLimit int
}

func (o Options) fanoutLimit() int {
	if o.FanoutLimit <= 0 {
		return 64
	}
	return o.FanoutLimit
}

// The FCV007 sanity window: a device's W/L must lie in [minWL, maxWL],
// its width must not exceed maxWUm and its length maxLUm (µm).
const (
	maxWL, minWL   float64 = 500, 0.02
	maxWUm, maxLUm float64 = 1000, 100
)

// ratioedMinStrength is the FCV016 margin: the weakest switched path
// must beat the strongest always-on load path by this factor.
const ratioedMinStrength = 2.0

// chargeShareRatio is the FCV015 suppression threshold: with explicit
// node capacitances, internal/output capacitance below this ratio is
// harmless.
const chargeShareRatio = 0.33

// Context is the per-circuit view rules run against. It carries the
// recognition result plus the circuit's adjacency index.
type Context struct {
	// Circuit is the flat circuit under analysis.
	Circuit *netlist.Circuit
	// Rec is the recognition result (CCCs, families, clocks, drivers).
	Rec *recognize.Result
	// Opt is the run configuration.
	Opt Options

	adj *netlist.Adjacency

	// df is the lazily built dataflow substrate (phase model, drive
	// paths, dynamic nodes, latch transparency) shared by FCV011+.
	df *dataflow.Analysis

	diags *[]Diag
}

// Dataflow returns the circuit's dataflow analysis, building it on
// first use so rule sets that exclude the phase family pay nothing.
func (ctx *Context) Dataflow() *dataflow.Analysis {
	if ctx.df == nil {
		ctx.df = dataflow.Analyze(ctx.Rec)
	}
	return ctx.df
}

// gateNets returns, in node order, the nodes that gate a device.
func (ctx *Context) gateNets() []netlist.NodeID {
	var ids []netlist.NodeID
	for i := range ctx.Circuit.Nodes {
		if id := netlist.NodeID(i); len(ctx.adj.Gated(id)) > 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// reachesDrive reports whether id has a DC path to a rail or an
// externally driven node through resistors and the channels of the
// devices conducts accepts (every device when nil).
func (ctx *Context) reachesDrive(id netlist.NodeID, conducts func(*netlist.Device) bool) bool {
	c := ctx.Circuit
	return ctx.adj.Reach([]netlist.NodeID{id}, conducts, true, func(u netlist.NodeID) bool {
		return c.IsSupply(u) || ctx.externallyDriven(u)
	})
}

// Report emits a finding. The rule fills Rule/Severity via the typed
// helpers on rule below; direct callers must set them.
func (ctx *Context) Report(d Diag) {
	d.Cell = ctx.Circuit.Name
	*ctx.diags = append(*ctx.diags, d)
}

// nodeLoc returns the deck location of a representative device on the
// node: the first device reading it as a gate, else the first device
// channel-connected to it, else the zero Loc.
func (ctx *Context) nodeLoc(id netlist.NodeID) netlist.Loc {
	if devs := ctx.adj.Gated(id); len(devs) > 0 {
		return devs[0].Loc
	}
	if devs := ctx.adj.Channel(id); len(devs) > 0 {
		return devs[0].Loc
	}
	return netlist.Loc{}
}

// Report is the outcome of linting one circuit or a whole library.
type Report struct {
	// Diags are the findings in deterministic order: by cell, rule,
	// subject, then location.
	Diags []Diag
}

// sortDiags establishes the deterministic report order: by cell, then
// deck position, then rule, then the stable finding ID. Position-first
// ordering keeps multi-rule output stable (the old rule-first order was
// only deterministic within one rule) and reads like a compiler's
// per-file diagnostics.
func sortDiags(ds []Diag) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Cell != b.Cell {
			return a.Cell < b.Cell
		}
		if a.Loc.File != b.Loc.File {
			return a.Loc.File < b.Loc.File
		}
		if a.Loc.Line != b.Loc.Line {
			return a.Loc.Line < b.Loc.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		return a.Message < b.Message
	})
}

// Counts returns the number of unwaived findings per severity.
func (r *Report) Counts() (errs, warns, infos int) {
	for _, d := range r.Diags {
		if d.Waived {
			continue
		}
		switch d.Severity {
		case Error:
			errs++
		case Warn:
			warns++
		default:
			infos++
		}
	}
	return
}

// HasErrors reports whether any unwaived error-severity finding exists —
// the condition that drives nonzero exit codes and the Verify gate.
func (r *Report) HasErrors() bool {
	e, _, _ := r.Counts()
	return e > 0
}

// Run lints one flat circuit (instances must be flattened away, as for
// recognition). The circuit must pass netlist.Validate — lint analyzes
// structure, it does not repair it.
func Run(c *netlist.Circuit, opt Options) (*Report, error) {
	rec, err := recognize.Analyze(c)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	return RunRecognized(rec, netlist.ComputeSignatures(c), opt), nil
}

// RunRecognized lints a circuit whose recognition result and signature
// table the caller already has (the CBV pipeline computes both anyway);
// sigs names the diagnostics (see attachIDs).
func RunRecognized(rec *recognize.Result, sigs *netlist.Signatures, opt Options) *Report {
	var diags []Diag
	ctx := &Context{
		Circuit: rec.Circuit,
		Rec:     rec,
		Opt:     opt,
		adj:     netlist.NewAdjacency(rec.Circuit),
		diags:   &diags,
	}
	for _, rule := range DefaultRules() {
		rule.Check(ctx)
	}
	applyWaivers(diags, opt.Waivers)
	// Sort before attaching IDs (so "#n" disambiguation of symmetric
	// subjects follows report order), then re-sort: the IDs now break
	// any remaining ties, making the order a pure function of content.
	sortDiags(diags)
	attachIDs(diags, sigs)
	sortDiags(diags)
	return &Report{Diags: diags}
}

// attachIDs fills each diagnostic's stable rename-invariant identity
// after sorting, so "#n" numbering of structurally symmetric subjects
// follows the deterministic report order.
func attachIDs(diags []Diag, sigs *netlist.Signatures) {
	counters := make(map[string]*netlist.IDCounter)
	for i := range diags {
		d := &diags[i]
		k := counters[d.Rule]
		if k == nil {
			k = netlist.NewIDCounter("lint", d.Rule)
			counters[d.Rule] = k
		}
		d.ID = k.ID(k.Count(sigs.SubjectSig(d.Subject)))
	}
}

// applyWaivers marks matching diagnostics as waived.
func applyWaivers(ds []Diag, w *Waivers) {
	if w == nil {
		return
	}
	for i := range ds {
		if entry := w.match(&ds[i]); entry != nil {
			ds[i].Waived = true
			ds[i].WaiverNote = entry.Note
		}
	}
}
