// Package core is the Correct-by-Verification (CBV) engine — the
// paper's primary methodological contribution.
//
// §2: "Digital Semiconductor's design methodology follows a Correct by
// verification (CBV) instead of the more popular Correct by construction
// (CBC) methods. CBV better addresses the key electrical issues involved
// with high-performance designs, while CBC may still be adequate for
// non-critical designs."
//
// The CBV engine accepts ANY transistor arrangement and verifies it:
// recognition deduces the meaning, the §4.2 check battery filters the
// electrical hazards, the timing verifier bounds delays and hunts races,
// and the verdicts are merged into a single filtered report
// (Pass/Inspect/Violation with margins).
//
// For the ablation experiment the package also implements a CBC checker:
// a library-rule gatekeeper that only admits structures matching its
// known-cell patterns. Running both over the same full-custom designs
// shows CBC rejecting legal, working DCVSL/domino/pass-gate structures
// that CBV verifies — the paper's argument, measured.
package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/checks"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/process"
	"repro/internal/recognize"
	"repro/internal/timing"
)

// Options configures a CBV run. It holds only what a caller chooses:
// every electrical check and every lint rule deduces its context from
// the circuit itself, with the tool's fixed thresholds.
type Options struct {
	// Proc is the process model (required).
	Proc *process.Process
	// Clock is the clocking methodology; zero value uses a two-phase
	// clock at the process's nominal frequency.
	Clock timing.ClockSpec
	// Lint enables the static pre-verification gate: the full lint
	// rule set runs, without waivers, before the electrical battery, its
	// report is attached to the Report, and error-severity findings
	// abort verification with a *LintGateError — a structurally broken
	// circuit would only produce meaningless electrical and timing
	// numbers.
	Lint bool
	// Trace, when non-nil, is the parent span under which Verify opens
	// one child span per pipeline stage (recognize, lint, checks,
	// timing) and bumps counters on the owning collector. Telemetry
	// never changes a verification outcome, so Key leaves it out.
	Trace *obs.Span
	// Events, when non-nil, receives stage-start/stage-end events for
	// the live JSONL stream. Like Trace, events never change outcomes
	// and Key leaves them out.
	Events *obs.EventScope
	// PprofLabels tags the running goroutine with an fcv_stage pprof
	// label for the duration of each stage, so CPU profiles attribute
	// samples to pipeline stages. Key leaves it out.
	PprofLabels bool
}

// stage runs one pipeline stage under its span (and, when enabled, its
// pprof label). The span and label cost nothing when telemetry is off:
// a nil Trace yields nil children whose End is a no-op.
func (o *Options) stage(name string, fn func()) {
	sp := o.Trace.Child(name)
	o.Events.Emit(obs.Event{Type: "stage-start", Stage: name})
	if o.PprofLabels {
		pprof.Do(context.Background(), pprof.Labels("fcv_stage", name), func(context.Context) { fn() })
	} else {
		fn()
	}
	sp.End()
	o.Trace.Collector().Observe("stage."+name+"_ms", float64(sp.Duration().Microseconds())/1000)
	o.Events.Emit(obs.Event{Type: "stage-end", Stage: name})
}

// ResolvedClock returns the clock spec Verify will actually analyze
// with: the configured one, or the process-default two-phase clock when
// the zero value was left in place. Cache keys and reports must use
// this, not Options.Clock, or two runs differing only in whether the
// default was spelled out would disagree.
func (o *Options) ResolvedClock() timing.ClockSpec {
	if o.Clock.PeriodPS == 0 && o.Proc != nil {
		return timing.TwoPhase(1e6 / o.Proc.ClockFreqMHz)
	}
	return o.Clock
}

// Key serializes every Options field that can change a verification
// outcome into a stable string: the process, the resolved clock (period
// and phase edges, phases in name order) and the lint gate. Two runs
// with equal keys over circuits with equal fingerprints produce
// interchangeable reports; that is what makes the fleet's memory and
// disk caches sound across callers. The telemetry fields are left out.
func (o *Options) Key() string {
	var sb strings.Builder
	if o.Proc != nil {
		fmt.Fprintf(&sb, "proc=%+v", *o.Proc)
	}
	ck := o.ResolvedClock()
	fmt.Fprintf(&sb, "|clock=%g", ck.PeriodPS)
	for _, name := range ck.PhaseNames() {
		ph := ck.Phases[name]
		fmt.Fprintf(&sb, ",%s[%g,%g]", name, ph.OpenPS, ph.ClosePS)
	}
	fmt.Fprintf(&sb, "|lint=%v", o.Lint)
	return sb.String()
}

// LintGateError is returned by Verify when the opt-in lint gate finds
// error-severity structural defects. It carries the full report so
// callers can render the findings.
type LintGateError struct {
	// Design is the rejected circuit's name.
	Design string
	// Report is the lint result that tripped the gate.
	Report *lint.Report
}

// Error summarizes the gate failure.
func (e *LintGateError) Error() string {
	errs, warns, _ := e.Report.Counts()
	return fmt.Sprintf("core: lint gate: %s has %d error-severity finding(s) (%d warning(s)); fix them before verification",
		e.Design, errs, warns)
}

// Report is the merged CBV result for one design.
type Report struct {
	// Design is the verified circuit's name.
	Design string
	// Recognition is the deduced structure.
	Recognition *recognize.Result
	// Checks is the electrical battery result.
	Checks *checks.Report
	// Timing is the race/critical-path analysis.
	Timing *timing.Report
	// Clock is the clock spec the analysis actually used — the resolved
	// default when Options.Clock was left zero. Callers keying caches on
	// verification configuration must read this, not their own copy of
	// the options (see Options.ResolvedClock).
	Clock timing.ClockSpec
	// Verdict is the overall classification: the worst of all findings
	// plus timing violations.
	Verdict checks.Verdict
	// InspectLoad counts the findings a designer must look at — the
	// methodology's cost metric (§4.3: "As the number of false
	// violations goes up, the productivity of the designer goes down").
	InspectLoad int
	// Lint is the static-analysis report when the Options.Lint gate was
	// enabled (nil otherwise). Its warnings count toward InspectLoad;
	// errors never reach here (Verify aborts).
	Lint *lint.Report
}

// Verify runs the full CBV pipeline on a flat circuit. It computes the
// circuit's signature table and runs VerifyWithSignatures.
func Verify(c *netlist.Circuit, opt Options) (*Report, error) {
	return VerifyWithSignatures(c, netlist.ComputeSignatures(c), opt)
}

// VerifyWithSignatures is Verify for a caller that already holds c's
// signature table (netlist.ComputeSignatures), as the fleet does after
// deriving its cache key from it. The lint gate, the checks battery and
// timing all name their findings from that one table, so a verification
// refines the circuit once. The report does not keep the table.
func VerifyWithSignatures(c *netlist.Circuit, sigs *netlist.Signatures, opt Options) (*Report, error) {
	if opt.Proc == nil {
		return nil, fmt.Errorf("core: missing process model")
	}
	opt.Clock = opt.ResolvedClock()
	opt.Trace.Collector().Add("core.verify_runs", 1)
	var rec *recognize.Result
	var err error
	opt.stage("recognize", func() {
		rec, err = recognize.Analyze(c)
	})
	if err != nil {
		return nil, err
	}
	var lintRep *lint.Report
	if opt.Lint {
		opt.stage("lint", func() {
			lintRep = lint.RunRecognized(rec, sigs, lint.Options{})
		})
		if lintRep.HasErrors() {
			return nil, &LintGateError{Design: c.Name, Report: lintRep}
		}
	}
	var chk *checks.Report
	opt.stage("checks", func() {
		chk, err = checks.RunAll(rec, sigs, checks.Options{Proc: opt.Proc, PeriodPS: opt.Clock.PeriodPS})
	})
	if err != nil {
		return nil, err
	}
	var tim *timing.Report
	opt.stage("timing", func() {
		tim, err = timing.Analyze(rec, sigs, timing.Options{Proc: opt.Proc, Clock: opt.Clock})
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Design:      c.Name,
		Recognition: rec,
		Checks:      chk,
		Timing:      tim,
		Clock:       opt.Clock,
		Verdict:     checks.Pass,
		Lint:        lintRep,
	}
	bump := func(v checks.Verdict) {
		if v > rep.Verdict {
			rep.Verdict = v
		}
	}
	if lintRep != nil {
		// Surviving lint warnings are designer-judgement items, exactly
		// the Inspect bucket of the filtering philosophy.
		_, warns, _ := lintRep.Counts()
		if warns > 0 {
			bump(checks.Inspect)
			rep.InspectLoad += warns
		}
	}
	for _, f := range chk.Findings {
		bump(f.Verdict)
		if f.Verdict != checks.Pass {
			rep.InspectLoad++
		}
	}
	// Unrecognized groups are CBV's "might have a problem" bucket.
	for range rec.GroupsByFamily(recognize.FamilyUnknown) {
		bump(checks.Inspect)
		rep.InspectLoad++
	}
	for _, p := range tim.Paths {
		if p.SetupSlack < 0 {
			bump(checks.Violation)
			rep.InspectLoad++
		}
	}
	for range tim.Races {
		bump(checks.Violation)
		rep.InspectLoad++
	}
	return rep, nil
}

// Findings assembles the report's non-pass outcomes as provenanced
// manifest findings, in deterministic order: surviving lint warnings
// (report order), then check inspects/violations (battery order), then
// timing setup violations and races (slack order). Each carries the
// producer's stable rename-invariant ID, so two runs of the same
// structure yield the same finding set and `fcv diff` can track
// findings across renames and reorderings.
func (r *Report) Findings() []obs.Finding {
	out := LintFindings(r.Lint)
	if r.Checks != nil {
		for _, f := range r.Checks.Findings {
			if f.Verdict == checks.Pass {
				continue
			}
			out = append(out, obs.Finding{
				ID:       f.ID,
				Source:   "check",
				Check:    f.Check,
				Subject:  f.Subject,
				Severity: f.Verdict.String(),
				Margin:   f.Margin,
				Detail:   f.Detail,
				Evidence: f.Evidence,
			})
		}
	}
	if r.Timing != nil {
		for _, p := range r.Timing.Paths {
			if p.SetupSlack >= 0 {
				continue
			}
			out = append(out, timingFinding(r.Timing, &p, "setup"))
		}
		for _, p := range r.Timing.Races {
			out = append(out, timingFinding(r.Timing, &p, "hold"))
		}
	}
	return out
}

// LintFindings converts a lint report's unwaived, non-info diagnostics
// into manifest findings under their stable lint rule IDs. A nil report
// yields nil. Shared by Report.Findings (surviving warnings on a
// verified design) and the fleet (the gate's own diagnostics when it
// aborts verification).
func LintFindings(rep *lint.Report) []obs.Finding {
	if rep == nil {
		return nil
	}
	var out []obs.Finding
	for _, d := range rep.Diags {
		if d.Waived || d.Severity == lint.Info {
			continue
		}
		out = append(out, obs.Finding{
			ID:       d.ID,
			Source:   "lint",
			Check:    d.Rule,
			Subject:  d.Subject,
			Severity: d.Severity.String(),
			Detail:   d.Message,
			Evidence: obs.Evidence{
				Nets:    []string{d.Subject},
				Context: "cell " + d.Cell,
				Unit:    "rule",
			},
		})
	}
	return out
}

// timingFinding converts one failing path check into a manifest finding.
func timingFinding(rep *timing.Report, p *timing.Path, kind string) obs.Finding {
	endpoint := rep.Circuit.NodeName(p.Endpoint)
	f := obs.Finding{
		Source:   "timing",
		Check:    kind,
		Subject:  endpoint,
		Severity: "violation",
		Evidence: obs.Evidence{Unit: "ps"},
	}
	route := p.NodesMax
	if kind == "setup" {
		f.ID = p.SetupID
		f.Margin = p.SetupSlack
		f.Detail = fmt.Sprintf("setup slack %.0f ps at %s", p.SetupSlack, endpoint)
		f.Evidence.Measured = p.Arrival.Max
		f.Evidence.Threshold = p.RequiredMax
	} else {
		f.ID = p.HoldID
		f.Margin = p.HoldSlack
		f.Detail = fmt.Sprintf("hold slack %.0f ps at %s (race)", p.HoldSlack, endpoint)
		f.Evidence.Measured = p.Arrival.Min
		f.Evidence.Threshold = p.RequiredMin
		route = p.NodesMin
	}
	for i, id := range route {
		if i >= 8 {
			break
		}
		f.Evidence.Nets = append(f.Evidence.Nets, rep.Circuit.NodeName(id))
	}
	if p.CaptureClock != "" {
		f.Evidence.Context = "captured by " + p.CaptureClock
	} else {
		f.Evidence.Context = "primary output"
	}
	return f
}

// Summary renders the merged report.
func (r *Report) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "CBV report for %s: verdict=%s inspect-load=%d\n", r.Design, r.Verdict, r.InspectLoad)
	if r.Lint != nil {
		le, lw, li := r.Lint.Counts()
		fmt.Fprintf(&sb, "  lint: %d error(s), %d warning(s), %d info(s)\n", le, lw, li)
	}
	fmt.Fprintf(&sb, "  recognition: %s\n", r.Recognition.Summary())
	p, i, v := r.Checks.Counts()
	fmt.Fprintf(&sb, "  checks: pass=%d inspect=%d violation=%d (filter %.0f%%)\n",
		p, i, v, r.Checks.FilterEffectiveness()*100)
	fmt.Fprintf(&sb, "  timing: %d endpoints, %d races, min period %.0f ps\n",
		len(r.Timing.Paths), len(r.Timing.Races), r.Timing.MinPeriodPS)
	return sb.String()
}

// ------------------------- CBC comparator --------------------------

// CBCRejection explains why the constructive checker refused a group.
type CBCRejection struct {
	Group  int
	Family recognize.Family
	Reason string
}

// CBCReport is the library-rule gatekeeper's verdict.
type CBCReport struct {
	Design     string
	Accepted   int
	Rejections []CBCRejection
}

// Accepts reports whether CBC admitted the whole design.
func (r *CBCReport) Accepts() bool { return len(r.Rejections) == 0 }

// CheckCBC applies "correct by construction" library rules: only
// structures matching the known-safe cell patterns are admitted —
// static complementary gates with bounded fan-in and conventional
// P:N sizing, and nothing else. This is deliberately the methodology
// the paper argues against for high-performance work: it guarantees
// what it accepts but cannot accept what full-custom designers build.
func CheckCBC(c *netlist.Circuit, proc *process.Process) (*CBCReport, error) {
	rec, err := recognize.Analyze(c)
	if err != nil {
		return nil, err
	}
	rep := &CBCReport{Design: c.Name}
	const maxFanIn = 4
	for _, g := range rec.Groups {
		reject := func(reason string) {
			rep.Rejections = append(rep.Rejections, CBCRejection{
				Group:  g.Index,
				Family: g.Family,
				Reason: reason,
			})
		}
		switch g.Family {
		case recognize.FamilyStaticCMOS:
			if len(g.Inputs) > maxFanIn {
				reject(fmt.Sprintf("fan-in %d exceeds library limit %d", len(g.Inputs), maxFanIn))
				continue
			}
			// Library sizing rule: every PMOS within 1–4× of every NMOS.
			minN, maxP := 1e18, 0.0
			for _, d := range g.Devices {
				wl := d.W / d.Leff()
				if d.Type == process.NMOS && wl < minN {
					minN = wl
				}
				if d.Type == process.PMOS && wl > maxP {
					maxP = wl
				}
			}
			if maxP > 4*minN {
				reject("device sizing outside library ratio rules")
				continue
			}
			rep.Accepted++
		case recognize.FamilyDynamic:
			reject("dynamic logic not in cell library")
		case recognize.FamilyDCVSL:
			reject("DCVSL not in cell library")
		case recognize.FamilyPassTransistor:
			reject("pass-transistor structures not in cell library")
		case recognize.FamilyRatioed:
			reject("ratioed logic not in cell library")
		default:
			reject("unrecognizable structure")
		}
	}
	sort.Slice(rep.Rejections, func(i, j int) bool {
		return rep.Rejections[i].Group < rep.Rejections[j].Group
	})
	return rep, nil
}

// MethodologyComparison is the CBV-vs-CBC ablation row for one design.
type MethodologyComparison struct {
	Design string
	// CBVVerdict is the verification outcome.
	CBVVerdict checks.Verdict
	// CBVInspectLoad is the designer effort CBV asks for.
	CBVInspectLoad int
	// CBCAccepts is whether the constructive rules admit the design.
	CBCAccepts bool
	// CBCRejected counts refused groups.
	CBCRejected int
}

// CompareMethodologies runs both engines over one design.
func CompareMethodologies(c *netlist.Circuit, opt Options) (*MethodologyComparison, error) {
	cbv, err := Verify(c, opt)
	if err != nil {
		return nil, err
	}
	cbc, err := CheckCBC(c, opt.Proc)
	if err != nil {
		return nil, err
	}
	return &MethodologyComparison{
		Design:         c.Name,
		CBVVerdict:     cbv.Verdict,
		CBVInspectLoad: cbv.InspectLoad,
		CBCAccepts:     cbc.Accepts(),
		CBCRejected:    len(cbc.Rejections),
	}, nil
}
