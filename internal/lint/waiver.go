package lint

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path"
	"strings"
)

// Waiver is one suppression entry: a finding is waived when its rule ID,
// cell and subject all match the entry's glob patterns (path.Match
// syntax, so "*" matches any single name).
type Waiver struct {
	// Rule, Cell and Subject are glob patterns over the corresponding
	// Diag fields.
	Rule, Cell, Subject string
	// Note is the justification text after the patterns.
	Note string
	// Line is the waiver file line, for unused-waiver reports.
	Line int

	used bool
}

// Waivers is a parsed waiver file.
type Waivers struct {
	entries []*Waiver
}

// ParseWaivers reads a waiver file:
//
//	# comment
//	RULE CELL SUBJECT justification text…
//
// RULE, CELL and SUBJECT are glob patterns ("FCV00?", "adder*", "*").
// Everything after the third field is the free-form justification.
func ParseWaivers(r io.Reader) (*Waivers, error) {
	w := &Waivers{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("waivers: line %d: want RULE CELL SUBJECT [note], got %q", lineNo, line)
		}
		for _, pat := range fields[:3] {
			if _, err := path.Match(pat, "probe"); err != nil {
				return nil, fmt.Errorf("waivers: line %d: bad pattern %q: %v", lineNo, pat, err)
			}
		}
		w.entries = append(w.entries, &Waiver{
			Rule:    fields[0],
			Cell:    fields[1],
			Subject: fields[2],
			Note:    strings.Join(fields[3:], " "),
			Line:    lineNo,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("waivers: read: %w", err)
	}
	return w, nil
}

// LoadWaivers reads a waiver file from disk.
func LoadWaivers(file string) (*Waivers, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseWaivers(f)
}

// match returns the first entry matching the diagnostic, or nil, and
// records the hit for Unused reporting.
func (w *Waivers) match(d *Diag) *Waiver {
	for _, e := range w.entries {
		if globMatch(e.Rule, d.Rule) && globMatch(e.Cell, d.Cell) && globMatch(e.Subject, d.Subject) {
			e.used = true
			return e
		}
	}
	return nil
}

// globMatch is path.Match with pattern errors (already validated at
// parse time) treated as non-matches.
func globMatch(pattern, name string) bool {
	ok, err := path.Match(pattern, name)
	return err == nil && ok
}

// Unused returns entries that never matched any finding — stale waivers,
// which fcv lint reports so suppressions don't outlive their violations.
func (w *Waivers) Unused() []*Waiver {
	var out []*Waiver
	for _, e := range w.entries {
		if !e.used {
			out = append(out, e)
		}
	}
	return out
}
