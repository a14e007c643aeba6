// Package checks implements the automated circuit-verification battery
// of §4.2 of the paper:
//
//	"The automated CAD circuit verification checks performed at Digital
//	Semiconductor include: Transistor configuration analysis — Beta ratio
//	and device size checks of all complementary and ratioed structures.
//	Clock distribution RC analysis ... Edge rate and delay analysis for
//	clocks and signals. Latch checks. Coupling analysis of static and
//	dynamic nodes. Dynamic charge share analysis. Dynamic node leakage
//	checks. State-element writability and noise margin analysis.
//	Electromigration, statistical and absolute failures. Antenna checks.
//	Hot Carrier and Time Dependant Dielectric Breakdown checks."
//
// Every check follows the paper's filtering philosophy (§2.3): the tool
// classifies each circuit as definitely fine (Pass), definitely broken
// (Violation), or needing designer judgement (Inspect) — "filtering of
// circuits that do not have a problem, and reporting those circuits that
// might have a problem." A check never returns a bare boolean; each
// finding carries a numeric margin so the designer can rank effort.
package checks

import (
	"fmt"
	"sort"

	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/process"
	"repro/internal/recognize"
)

// Verdict is the three-state outcome of a filtering check.
type Verdict int

// Verdicts, ordered by severity.
const (
	// Pass: the filter proves the circuit has no problem; the designer
	// never sees it. RunAll keeps a pass only as a count in
	// Report.ByCheck; Run returns it as a finding.
	Pass Verdict = iota
	// Inspect: the filter cannot prove safety; the designer must look.
	Inspect
	// Violation: the filter proves a problem.
	Violation
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Pass:
		return "pass"
	case Inspect:
		return "inspect"
	default:
		return "violation"
	}
}

// Finding is one check result on one circuit object.
type Finding struct {
	// Check is the check's short name (e.g. "beta-ratio").
	Check string
	// Subject names the node, device or group concerned.
	Subject string
	// Verdict classifies the finding.
	Verdict Verdict
	// Margin is a normalized safety margin: ≥1 comfortably safe, 1..0
	// shrinking margin, <0 violated. Margins let reports rank designer
	// attention.
	Margin float64
	// Detail is a human-readable explanation with numbers.
	Detail string
	// ID is the stable finding identity ("check/<name>@<16-hex>", "#n"
	// suffixed on the n-th finding of the check on a structurally
	// identical subject): rename-invariant because the hex half is the
	// subject's structural signature (netlist.Signatures), not its name.
	ID string
	// Evidence is the structured context behind the finding: what the
	// check looked at and what it measured, so run reports can explain a
	// verdict without re-running the battery.
	Evidence obs.Evidence
}

// Coupling describes extracted coupling capacitance onto a victim node.
type Coupling struct {
	Victim    string
	Aggressor string
	CapFF     float64
}

// Options configures a battery run.
type Options struct {
	// Proc is the process model (required).
	Proc *process.Process
	// PeriodPS is the clock period, needed by leakage-hold, clock-RC
	// and electromigration checks. Zero uses the process's nominal
	// frequency.
	PeriodPS float64
	// Couplings carries extracted coupling caps (victim-keyed) for the
	// coupling-noise analysis. It is the check's only input: a victim
	// without an entry gets no coupling finding.
	Couplings []Coupling
	// AntennaRatios carries per-node metal/gate area ratios from layout
	// extraction. Nodes can alternatively be annotated with an
	// "antenna" attribute.
	AntennaRatios map[string]float64
	// SupplyDropMV maps supply-domain names (node "supply_domain"
	// attributes; "" is the core domain) to their IR drop in mV, for
	// the supply-difference noise analysis. Empty disables the check.
	SupplyDropMV map[string]float64
}

// Report aggregates a battery run.
type Report struct {
	// Findings holds the inspect and violation findings, the ones the
	// designer sees, in battery order. A pass is only counted, in
	// ByCheck.
	Findings []Finding
	// ByCheck counts findings per check name and verdict, passes
	// included. Every check has an entry, and a verdict a check never
	// gave has no key.
	ByCheck map[string]map[Verdict]int
}

// Counts returns total (pass, inspect, violation) counts.
func (r *Report) Counts() (pass, inspect, violation int) {
	for _, m := range r.ByCheck {
		pass += m[Pass]
		inspect += m[Inspect]
		violation += m[Violation]
	}
	return
}

// Violations returns only the violation findings.
func (r *Report) Violations() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Verdict == Violation {
			out = append(out, f)
		}
	}
	return out
}

// FilterEffectiveness is the fraction of findings auto-passed — the
// paper's measure of how much design the tools keep away from the
// designer's eyes.
func (r *Report) FilterEffectiveness() float64 {
	p, i, v := r.Counts()
	if p+i+v == 0 {
		return 1
	}
	return float64(p) / float64(p+i+v)
}

// Summary renders per-check counts, sorted by check name.
func (r *Report) Summary() string {
	names := make([]string, 0, len(r.ByCheck))
	for n := range r.ByCheck {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		m := r.ByCheck[n]
		s += fmt.Sprintf("%-22s pass=%-4d inspect=%-3d violation=%d\n",
			n, m[Pass], m[Inspect], m[Violation])
	}
	return s
}

// A checkFunc runs one §4.2 check over a recognized circuit, handing
// each finding to sh.emit.
type checkFunc func(rec *recognize.Result, opt *Options, sh *shared)

// shared is the circuit structure the checks of one RunAll or Run call
// read: the adjacency index, every node's load capacitance and the
// signature table findings are named from. It is built once per call
// and dropped with it. It also carries the running check's name,
// verdict tally and ID counter, which begin resets, and out, the kept
// findings of every check the call has run.
type shared struct {
	rec   *recognize.Result
	adj   *netlist.Adjacency
	loads []float64
	sigs  *netlist.Signatures
	// keepPass keeps passing findings: Run sets it, RunAll does not.
	keepPass bool

	check string
	tally [Violation + 1]int
	ids   netlist.IDCounter
	out   []Finding
}

// prepare validates and defaults opt and builds the shared structure.
func prepare(rec *recognize.Result, sigs *netlist.Signatures, opt *Options) (*shared, error) {
	if opt.Proc == nil {
		return nil, fmt.Errorf("checks: missing process model")
	}
	if opt.PeriodPS <= 0 {
		opt.PeriodPS = 1e6 / opt.Proc.ClockFreqMHz // MHz → ps
	}
	return &shared{
		rec:   rec,
		adj:   netlist.NewAdjacency(rec.Circuit),
		loads: netlist.NodeLoads(rec.Circuit, opt.Proc),
		sigs:  sigs,
	}, nil
}

// begin readies sh for the findings of the named check.
func (sh *shared) begin(check string) {
	sh.check = check
	sh.tally = [Violation + 1]int{}
	sh.ids.Reset("check", check)
}

// emit is the one path every finding takes. It counts the verdict and
// the finding's base ID, so a kept finding's "#n" suffix counts the
// passes before it. A pass stops there unless sh keeps passes;
// otherwise emit builds the finding's detail (detail is called only
// then), numbered ID and evidence, and appends it to sh.out.
func (sh *shared) emit(subject string, v Verdict, margin float64, detail func() string) {
	sh.tally[v]++
	name := sigSubject(sh.rec.Circuit, subject)
	base, n := sh.ids.Count(sh.sigs.SubjectSig(name))
	if v == Pass && !sh.keepPass {
		return
	}
	sh.out = append(sh.out, Finding{
		Check:    sh.check,
		Subject:  subject,
		Verdict:  v,
		Margin:   margin,
		Detail:   detail(),
		ID:       sh.ids.ID(base, n),
		Evidence: sh.evidence(name, margin),
	})
}

// battery lists all checks in the paper's order.
var battery = []struct {
	name string
	fn   checkFunc
}{
	{"beta-ratio", checkBetaRatio},
	{"clock-rc", checkClockRC},
	{"edge-rate", checkEdgeRate},
	{"latch", checkLatch},
	{"coupling", checkCoupling},
	{"supply-difference", checkSupplyDifference},
	{"particle", checkParticle},
	{"charge-share", checkChargeShare},
	{"dynamic-leakage", checkDynamicLeakage},
	{"writability", checkWritability},
	{"electromigration", checkElectromigration},
	{"antenna", checkAntenna},
	{"hot-carrier", checkHotCarrier},
}

// CheckNames returns the battery's check names in run order.
func CheckNames() []string {
	out := make([]string, len(battery))
	for i, b := range battery {
		out[i] = b.name
	}
	return out
}

// RunAll executes the full battery. sigs is the signature table of
// rec.Circuit; it names the findings. The report keeps the inspect and
// violation findings, each with its detail, ID and evidence, and
// counts every verdict, passes included, per check: a pass is what the
// designer never sees, so it is never built.
func RunAll(rec *recognize.Result, sigs *netlist.Signatures, opt Options) (*Report, error) {
	sh, err := prepare(rec, sigs, &opt)
	if err != nil {
		return nil, err
	}
	rep := &Report{ByCheck: make(map[string]map[Verdict]int, len(battery))}
	for _, b := range battery {
		sh.begin(b.name)
		b.fn(rec, &opt, sh)
		m := make(map[Verdict]int)
		for v, n := range sh.tally {
			if n > 0 {
				m[Verdict(v)] = n
			}
		}
		rep.ByCheck[b.name] = m
	}
	rep.Findings = sh.out
	return rep, nil
}

// Run executes a single named check; sigs is as for RunAll. It returns
// every finding of the check, passes included, each with its detail,
// ID and evidence, and each ID as RunAll would number it.
func Run(name string, rec *recognize.Result, sigs *netlist.Signatures, opt Options) ([]Finding, error) {
	sh, err := prepare(rec, sigs, &opt)
	if err != nil {
		return nil, err
	}
	sh.keepPass = true
	for _, b := range battery {
		if b.name == name {
			sh.begin(b.name)
			b.fn(rec, &opt, sh)
			return sh.out, nil
		}
	}
	return nil, fmt.Errorf("checks: unknown check %q (known: %v)", name, CheckNames())
}

// verdictFromMargin applies the standard two-threshold classification:
// margin ≥ inspectAt passes, margin ≥ 0 inspects, below violates.
func verdictFromMargin(margin, inspectAt float64) Verdict {
	switch {
	case margin >= inspectAt:
		return Pass
	case margin >= 0:
		return Inspect
	default:
		return Violation
	}
}
