package netlist

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// sigChain builds a 3-stage inverter chain with configurable node names
// and device insertion order, for invariance tests.
func sigChain(names [4]string, reversed bool, w2 float64) *Circuit {
	c := New("chain")
	type dev struct {
		name             string
		nmos             bool
		gate, src, drain string
		w                float64
	}
	devs := []dev{
		{"mn1", true, names[0], "vss", names[1], 2},
		{"mp1", false, names[0], "vdd", names[1], 4},
		{"mn2", true, names[1], "vss", names[2], w2},
		{"mp2", false, names[1], "vdd", names[2], 2 * w2},
		{"mn3", true, names[2], "vss", names[3], 2},
		{"mp3", false, names[2], "vdd", names[3], 4},
	}
	if reversed {
		for i, j := 0, len(devs)-1; i < j; i, j = i+1, j-1 {
			devs[i], devs[j] = devs[j], devs[i]
		}
	}
	c.DeclarePort(names[0])
	c.DeclarePort(names[3])
	for _, d := range devs {
		if d.nmos {
			c.NMOS(d.name, d.gate, d.src, d.drain, d.w, 0.75)
		} else {
			c.PMOS(d.name, d.gate, d.src, d.drain, d.w, 0.75)
		}
	}
	return c
}

// firstID is the ID an IDCounter gives the first finding of source and
// check on subject.
func firstID(s *Signatures, source, check, subject string) string {
	k := NewIDCounter(source, check)
	return k.ID(k.Count(s.SubjectSig(subject)))
}

// TestSignaturesRenameInvariant: renaming nodes and reversing device
// order maps corresponding subjects to identical signatures and IDs.
func TestSignaturesRenameInvariant(t *testing.T) {
	a := sigChain([4]string{"in", "n1", "n2", "out"}, false, 2)
	b := sigChain([4]string{"x", "alpha", "beta", "y"}, true, 2)
	sa, sb := ComputeSignatures(a), ComputeSignatures(b)
	pairs := [][2]string{{"in", "x"}, {"n1", "alpha"}, {"n2", "beta"}, {"out", "y"}}
	for _, p := range pairs {
		if sa.SubjectSig(p[0]) != sb.SubjectSig(p[1]) {
			t.Errorf("node %s vs %s: signatures differ", p[0], p[1])
		}
		ia := firstID(sa, "check", "edge-rate", p[0])
		ib := firstID(sb, "check", "edge-rate", p[1])
		if ia != ib {
			t.Errorf("finding IDs differ under rename: %s vs %s", ia, ib)
		}
	}
	// Device subjects too: mn2 keeps its signature across reordering.
	if sa.SubjectSig("mn2") != sb.SubjectSig("mn2") {
		t.Error("device signature changed under reorder")
	}
}

// TestSignaturesSizingSensitive: a W change moves the signatures of the
// nodes that can see it.
func TestSignaturesSizingSensitive(t *testing.T) {
	a := ComputeSignatures(sigChain([4]string{"in", "n1", "n2", "out"}, false, 2))
	b := ComputeSignatures(sigChain([4]string{"in", "n1", "n2", "out"}, false, 6))
	if a.SubjectSig("n2") == b.SubjectSig("n2") {
		t.Error("driven-node signature unchanged by W change")
	}
	if firstID(a, "check", "beta-ratio", "n2") == firstID(b, "check", "beta-ratio", "n2") {
		t.Error("finding ID unchanged by W change")
	}
}

// TestSignaturesDistinguishSubjects: different subjects of the same
// check get different IDs, and device subjects are domain-separated
// from nodes.
func TestSignaturesDistinguishSubjects(t *testing.T) {
	s := ComputeSignatures(sigChain([4]string{"in", "n1", "n2", "out"}, false, 2))
	ids := map[string]bool{}
	for _, subj := range []string{"in", "n1", "n2", "out", "mn1", "mp1", "no-such-name"} {
		id := firstID(s, "check", "coupling", subj)
		if ids[id] {
			t.Errorf("duplicate ID %s for subject %s", id, subj)
		}
		ids[id] = true
	}
	if firstID(s, "check", "coupling", "n1") == firstID(s, "check", "edge-rate", "n1") {
		t.Error("check name not part of the ID")
	}
	if firstID(s, "check", "coupling", "n1") == firstID(s, "lint", "coupling", "n1") {
		t.Error("source not part of the ID")
	}
}

// TestIDCounter: the counter numbers repeats of a base ID in counting
// order, counts a finding it never names, keeps the first finding on a
// base bare, and starts over on Reset as a fresh counter would.
func TestIDCounter(t *testing.T) {
	s := ComputeSignatures(sigChain([4]string{"in", "n1", "n2", "out"}, false, 2))
	k := NewIDCounter("check", "edge-rate")
	var got []string
	for i, subj := range []string{"n1", "n2", "n1", "n1", "n2", "n1"} {
		base, n := k.Count(s.SubjectSig(subj))
		if i == 3 {
			continue // counted, never named
		}
		got = append(got, k.ID(base, n))
	}
	a, b := got[0], got[1]
	if a == b || !strings.HasPrefix(a, "check/edge-rate@") || strings.Contains(a+b, "#") {
		t.Fatalf("first IDs on two bases = %s, %s; want two distinct bare check/edge-rate IDs", a, b)
	}
	want := []string{a, b, a + "#2", b + "#2", a + "#4"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("IDs = %v, want %v", got, want)
	}
	for _, h := range []uint64{0, 0x1f, 0xfedcba9876543210} {
		if got, want := formatID("check/x", h, 12), fmt.Sprintf("check/x@%016x#12", h); got != want {
			t.Errorf("formatID(%#x) = %s, want %s", h, got, want)
		}
	}
	k.Reset("lint", "FCV001")
	fresh := NewIDCounter("lint", "FCV001")
	if base, n := k.Count(s.SubjectSig("n1")); n != 1 || k.ID(base, n) != fresh.ID(fresh.Count(s.SubjectSig("n1"))) {
		t.Errorf("after Reset: count %d, ID %s, want 1 and a fresh counter's ID", n, k.ID(base, n))
	}
}

// TestFingerprintUnchangedByRefactor: the refine extraction must not
// have moved the digest — pin the fingerprint's self-consistency and
// its invariance on the shared fixture.
func TestFingerprintUnchangedByRefactor(t *testing.T) {
	a := sigChain([4]string{"in", "n1", "n2", "out"}, false, 2)
	b := sigChain([4]string{"x", "alpha", "beta", "y"}, true, 2)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint not rename/reorder invariant")
	}
	// Repeat calls agree (refine results are copied before sorting).
	if a.Fingerprint() != a.Fingerprint() {
		t.Error("fingerprint unstable across calls")
	}
	sigs := ComputeSignatures(a)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("computing signatures perturbed the fingerprint")
	}
	_ = sigs
	// Node multisets agree between the renamed twins.
	ms := func(s *Signatures) []uint64 {
		out := append([]uint64(nil), s.node...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	ma, mb := ms(ComputeSignatures(a)), ms(ComputeSignatures(b))
	for i := range ma {
		if ma[i] != mb[i] {
			t.Fatalf("node label multisets diverge at %d", i)
		}
	}
}
