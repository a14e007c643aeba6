package main

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/process"
	"repro/internal/serve"
	"repro/internal/timing"
)

// agreeRow is one deck through both front doors: fcv verify with flags
// (and the top as its trailing positional), and POST /verify with the
// matching query.
type agreeRow struct {
	name   string
	deck   string
	flags  []string
	query  string
	top    string
	accept bool // the expected outcome on both sides
}

// TestCLIAndDaemonAgree pins the one top-cell rule across the two front
// doors: for every row, `fcv verify … -manifest` and POST /verify of the
// same file either both reject the deck or both accept it with the same
// items — fingerprint, verdict and finding IDs, in order.
func TestCLIAndDaemonAgree(t *testing.T) {
	proc, err := process.ByName("cmos075")
	if err != nil {
		t.Fatal(err)
	}
	period := 1e6 / proc.ClockFreqMHz
	hs := httptest.NewServer(serve.New(serve.Config{
		Core: core.Options{Proc: proc, Clock: timing.TwoPhase(period)},
	}))
	defer hs.Close()

	inv := ".subckt inv a y\nmn y a vss vss nmos w=2 l=0.75\nmp y a vdd vdd pmos w=4 l=0.75\n.ends\n"
	resistorSoup := writeDeck(t, inv+"r1 a b 100\n")
	soup := writeDeck(t, invDeck)
	empty := writeDeck(t, "* no cells, no elements\n")

	decks, err := filepath.Glob("../../examples/decks/*.sp")
	if err != nil || len(decks) == 0 {
		t.Fatalf("no example decks: %v", err)
	}
	var rows []agreeRow
	for _, deck := range decks {
		base := filepath.Base(deck)
		rows = append(rows,
			agreeRow{name: base, deck: deck, accept: true},
			agreeRow{name: base + " lint cells", deck: deck, flags: []string{"-lint", "-cells"}, query: "lint=1&cells=1", accept: true})
	}
	deepTree := "../../examples/decks/deep_tree.sp"
	rows = append(rows,
		agreeRow{"deep_tree hier", deepTree, []string{"-hier"}, "hier=1", "chip", true},
		agreeRow{"deep_tree hier inline -1", deepTree, []string{"-hier", "-hier-inline", "-1"}, "hier=1&hier_inline=-1", "chip", true},
		agreeRow{"resistor soup", resistorSoup, nil, "", "", true},
		agreeRow{"named soup flat", soup, nil, "", "top", true},
		agreeRow{"named soup hier", soup, []string{"-hier"}, "hier=1", "top", true},
		agreeRow{"top with cells", soup, []string{"-cells"}, "cells=1", "inv", false},
		agreeRow{"empty deck cells", empty, []string{"-cells"}, "cells=1", "", false},
		agreeRow{"unknown top", soup, nil, "", "nosuch", false},
	)

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			cli, cliErr := cliManifest(t, proc, period, r)
			daemon, status := daemonManifest(t, hs.URL, r)
			if (cli != nil) != r.accept || (daemon != nil) != r.accept {
				t.Fatalf("accepted: CLI %v (%v), daemon %v (status %d); want %v on both",
					cli != nil, cliErr, daemon != nil, status, r.accept)
			}
			if !r.accept {
				return
			}
			if len(cli.Items) != len(daemon.Items) {
				t.Fatalf("CLI has %d items, daemon %d", len(cli.Items), len(daemon.Items))
			}
			for i := range cli.Items {
				c, d := cli.Items[i], daemon.Items[i]
				if name := strings.TrimPrefix(c.Name, r.deck+":"); name != d.Name {
					t.Errorf("item %d: CLI %q, daemon %q", i, c.Name, d.Name)
				}
				if c.Fingerprint != d.Fingerprint || c.Verdict != d.Verdict {
					t.Errorf("item %s: CLI %s %s, daemon %s %s", d.Name, c.Fingerprint, c.Verdict, d.Fingerprint, d.Verdict)
				}
				if ci, di := findingIDs(c), findingIDs(d); ci != di {
					t.Errorf("item %s: CLI findings [%s], daemon [%s]", d.Name, ci, di)
				}
			}
		})
	}
}

// cliManifest runs fcv verify for the row and returns its manifest, or
// nil and the error when the run was refused (exit 2).
func cliManifest(t *testing.T, proc *process.Process, period float64, r agreeRow) (*obs.Manifest, error) {
	t.Helper()
	mpath := filepath.Join(t.TempDir(), "m.json")
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	args := append([]string{"-quiet", "-manifest", mpath}, r.flags...)
	args = append(args, r.deck)
	if r.top != "" {
		args = append(args, r.top)
	}
	if err := runVerify(args, proc, period, devnull); err != nil && !errors.Is(err, errVerifyFindings) {
		return nil, err
	}
	m, err := obs.ReadManifestFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	return m, nil
}

// daemonManifest posts the row's deck under its own path and returns the
// manifest, or nil when the daemon answered 400.
func daemonManifest(t *testing.T, base string, r agreeRow) (*obs.Manifest, int) {
	t.Helper()
	data, err := os.ReadFile(r.deck)
	if err != nil {
		t.Fatal(err)
	}
	q := "src=" + url.QueryEscape(r.deck)
	if r.query != "" {
		q += "&" + r.query
	}
	if r.top != "" {
		q += "&top=" + url.QueryEscape(r.top)
	}
	resp, err := http.Post(base+"/verify?"+q, "text/plain", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusUnprocessableEntity:
	case http.StatusBadRequest:
		return nil, resp.StatusCode
	default:
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	m, err := obs.ParseManifest(body)
	if err != nil {
		t.Fatal(err)
	}
	return m, resp.StatusCode
}

// findingIDs joins an item's finding IDs in manifest order.
func findingIDs(it obs.ManifestItem) string {
	ids := make([]string, len(it.Findings))
	for i, f := range it.Findings {
		ids[i] = f.ID
	}
	return strings.Join(ids, ",")
}
