package rtl

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// SyntaxError reports an FCL parse failure with position.
type SyntaxError struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("fcl: line %d: %s", e.Line, e.Msg)
}

// Parse reads an FCL program. The first module is the default top unless
// a later module is named "top".
func Parse(r io.Reader) (*Program, error) {
	prog := &Program{Modules: make(map[string]*Module)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	var cur *Module
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		word := line
		if i := strings.IndexAny(line, " \t"); i >= 0 {
			word = line[:i]
		}
		if cur == nil && word != "module" {
			return nil, &SyntaxError{lineNo, "expected 'module'"}
		}
		var err error
		switch word {
		case "module":
			if cur != nil {
				return nil, &SyntaxError{lineNo, fmt.Sprintf("module %q missing endmodule", cur.Name)}
			}
			cur, err = parseModuleHeader(line, lineNo)
			if err == nil {
				if _, dup := prog.Modules[cur.Name]; dup {
					err = &SyntaxError{lineNo, fmt.Sprintf("duplicate module %q", cur.Name)}
				} else {
					prog.Modules[cur.Name] = cur
					if prog.Top == "" || cur.Name == "top" {
						prog.Top = cur.Name
					}
				}
			}
		case "endmodule":
			cur = nil
		case "wire", "reg":
			err = parseSignal(cur, line, lineNo)
		case "mem", "cam":
			err = parseArray(cur, word, line, lineNo)
		case "assign":
			err = parseAssign(cur, line, lineNo)
		case "on":
			err = parseClocked(cur, line, lineNo)
		case "inst":
			err = parseInst(cur, line, lineNo)
		default:
			err = &SyntaxError{lineNo, fmt.Sprintf("unknown statement %q", word)}
		}
		if err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fcl: read: %w", err)
	}
	if cur != nil {
		return nil, &SyntaxError{lineNo, "missing endmodule"}
	}
	if len(prog.Modules) == 0 {
		return nil, &SyntaxError{lineNo, "no modules"}
	}
	return prog, nil
}

// ParseString parses FCL source from a string.
func ParseString(src string) (*Program, error) {
	return Parse(strings.NewReader(src))
}

// parseModuleHeader handles "module name(in[w], ... -> out[w], ...)".
func parseModuleHeader(line string, no int) (*Module, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "module"))
	open := strings.Index(rest, "(")
	if open < 0 || !strings.HasSuffix(rest, ")") {
		return nil, &SyntaxError{no, "module header needs (ports)"}
	}
	m := &Module{Name: strings.TrimSpace(rest[:open])}
	if m.Name == "" {
		return nil, &SyntaxError{no, "module needs a name"}
	}
	body := rest[open+1 : len(rest)-1]
	inPart, outPart, hasOut := strings.Cut(body, "->")
	parseList := func(s string, kind SignalKind) error {
		for _, item := range splitTop(s, ',') {
			item = strings.TrimSpace(item)
			if item == "" {
				continue
			}
			name, width, err := parseNameWidth(item, no)
			if err != nil {
				return err
			}
			m.Ports = append(m.Ports, SignalDecl{Name: name, Width: width, Kind: kind})
		}
		return nil
	}
	if err := parseList(inPart, KindInput); err != nil {
		return nil, err
	}
	if hasOut {
		if err := parseList(outPart, KindOutput); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// parseNameWidth parses "name" or "name[w]".
func parseNameWidth(s string, no int) (string, int, error) {
	if i := strings.Index(s, "["); i >= 0 {
		if !strings.HasSuffix(s, "]") {
			return "", 0, &SyntaxError{no, "unterminated width in " + s}
		}
		w, err := strconv.Atoi(s[i+1 : len(s)-1])
		if err != nil || w < 1 || w > 64 {
			return "", 0, &SyntaxError{no, fmt.Sprintf("width in %q must be 1..64", s)}
		}
		return s[:i], w, nil
	}
	return s, 1, nil
}

// parseSignal handles "wire x[w]" and "reg r[w] @phase [= init]".
func parseSignal(m *Module, line string, no int) error {
	fields := strings.Fields(line)
	kind := KindWire
	if fields[0] == "reg" {
		kind = KindReg
	}
	if len(fields) < 2 {
		return &SyntaxError{no, fields[0] + " needs a name"}
	}
	name, width, err := parseNameWidth(fields[1], no)
	if err != nil {
		return err
	}
	d := SignalDecl{Name: name, Width: width, Kind: kind}
	rest := fields[2:]
	for i := 0; i < len(rest); i++ {
		switch {
		case strings.HasPrefix(rest[i], "@"):
			d.Phase = rest[i][1:]
		case rest[i] == "=" && i+1 < len(rest):
			v, err := parseNumLiteral(rest[i+1], no)
			if err != nil {
				return err
			}
			d.Init = v.Value
			i++
		default:
			return &SyntaxError{no, fmt.Sprintf("unexpected %q", rest[i])}
		}
	}
	if kind == KindReg && d.Phase == "" {
		return &SyntaxError{no, fmt.Sprintf("reg %s needs a clock phase (@phi1)", name)}
	}
	if kind == KindWire && d.Phase != "" {
		return &SyntaxError{no, fmt.Sprintf("wire %s cannot have a phase", name)}
	}
	m.Signals = append(m.Signals, d)
	return nil
}

// maxDepth bounds a memory's or CAM's word count, and an elaborated
// design's total, which the simulators allocate up front; the largest
// repo design, S4's CAM, has 2048.
const maxDepth = 1 << 16

// parseArray handles "mem name depth width" and "cam name depth width".
func parseArray(m *Module, kind, line string, no int) error {
	fields := strings.Fields(line)
	if len(fields) != 4 {
		return &SyntaxError{no, kind + " needs: " + kind + " name depth width"}
	}
	depth, err1 := strconv.Atoi(fields[2])
	width, err2 := strconv.Atoi(fields[3])
	if err1 != nil || err2 != nil || depth < 1 || width < 1 || width > 64 {
		return &SyntaxError{no, kind + " depth/width invalid"}
	}
	if depth > maxDepth {
		return &SyntaxError{no, fmt.Sprintf("%s depth %d exceeds the limit of %d", kind, depth, maxDepth)}
	}
	if kind == "mem" {
		m.Mems = append(m.Mems, MemDecl{fields[1], depth, width})
	} else {
		m.Cams = append(m.Cams, CamDecl{fields[1], depth, width})
	}
	return nil
}

// parseAssign handles "assign target = expr".
func parseAssign(m *Module, line string, no int) error {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "assign"))
	lhs, rhs, ok := strings.Cut(rest, "=")
	if !ok {
		return &SyntaxError{no, "assign needs '='"}
	}
	target := strings.TrimSpace(lhs)
	if target == "" || strings.ContainsAny(target, "[]{} ") {
		return &SyntaxError{no, "assign target must be a plain signal"}
	}
	e, err := parseExpr(strings.TrimSpace(rhs), no)
	if err != nil {
		return err
	}
	m.Assigns = append(m.Assigns, Assign{Target: target, Expr: e, Line: no})
	return nil
}

// parseClocked handles
// "on phase: target <= expr", "on phase: target[idx] <= expr",
// and the guarded form "on phase if cond: ...".
func parseClocked(m *Module, line string, no int) error {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "on"))
	head, body, ok := strings.Cut(rest, ":")
	if !ok {
		return &SyntaxError{no, "on needs ':'"}
	}
	stmt := ClockedStmt{Line: no}
	phasePart, condPart, hasCond := strings.Cut(head, " if ")
	stmt.Phase = strings.TrimSpace(phasePart)
	if stmt.Phase == "" {
		return &SyntaxError{no, "on needs a phase"}
	}
	if hasCond {
		cond, err := parseExpr(strings.TrimSpace(condPart), no)
		if err != nil {
			return err
		}
		stmt.Cond = cond
	}
	lhs, rhs, ok := strings.Cut(body, "<=")
	if !ok {
		return &SyntaxError{no, "clocked statement needs '<='"}
	}
	target := strings.TrimSpace(lhs)
	if i := strings.Index(target, "["); i >= 0 {
		if !strings.HasSuffix(target, "]") {
			return &SyntaxError{no, "unterminated index"}
		}
		idx, err := parseExpr(target[i+1:len(target)-1], no)
		if err != nil {
			return err
		}
		stmt.Idx = idx
		target = target[:i]
	}
	stmt.Target = target
	e, err := parseExpr(strings.TrimSpace(rhs), no)
	if err != nil {
		return err
	}
	stmt.Expr = e
	m.Clocked = append(m.Clocked, stmt)
	return nil
}

// parseInst handles "inst name of module(port=sig, ...)".
func parseInst(m *Module, line string, no int) error {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "inst"))
	name, rest, ok := strings.Cut(rest, " of ")
	if !ok {
		return &SyntaxError{no, "inst needs: inst name of module(bindings)"}
	}
	name = strings.TrimSpace(name)
	rest = strings.TrimSpace(rest)
	open := strings.Index(rest, "(")
	if open < 0 || !strings.HasSuffix(rest, ")") {
		return &SyntaxError{no, "inst needs (bindings)"}
	}
	inst := Instance{
		Name:     name,
		Module:   strings.TrimSpace(rest[:open]),
		Bindings: make(map[string]string),
		Line:     no,
	}
	for _, kv := range splitTop(rest[open+1:len(rest)-1], ',') {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		port, sig, ok := strings.Cut(kv, "=")
		if !ok {
			return &SyntaxError{no, fmt.Sprintf("binding %q needs port=signal", kv)}
		}
		inst.Bindings[strings.TrimSpace(port)] = strings.TrimSpace(sig)
	}
	m.Instances = append(m.Instances, inst)
	return nil
}

// splitTop splits on sep at depth 0 of (), [], {}.
func splitTop(s string, sep byte) []string {
	var out []string
	depth := 0
	last := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[', '{':
			depth++
		case ')', ']', '}':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, s[last:i])
				last = i + 1
			}
		}
	}
	out = append(out, s[last:])
	return out
}
