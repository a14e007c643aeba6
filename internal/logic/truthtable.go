package logic

import (
	"fmt"
	"strings"
)

// TruthTable is the exhaustive function table of a small boolean function
// (up to 20 inputs). It is the test oracle of the BDD kernel and of
// recognition's output flags: a table is computed by evaluating the
// expression row by row, with no BDD involved.
type TruthTable struct {
	// Inputs is the ordered input names.
	Inputs []string
	// Bits holds one bit per input assignment; assignment i sets
	// input k to bit k of i. Packed 64 per word.
	Bits []uint64
}

// maxTTInputs bounds table size to 2^20 rows (128 KiB of bits).
const maxTTInputs = 20

// TableFromExpr evaluates e over the given ordered inputs.
func TableFromExpr(e Expr, inputs []string) (*TruthTable, error) {
	if len(inputs) > maxTTInputs {
		return nil, fmt.Errorf("logic: truth table over %d inputs exceeds the %d-input limit", len(inputs), maxTTInputs)
	}
	rows := 1 << len(inputs)
	tt := &TruthTable{
		Inputs: append([]string(nil), inputs...),
		Bits:   make([]uint64, (rows+63)/64),
	}
	env := make(map[string]bool, len(inputs))
	for i := 0; i < rows; i++ {
		for k, name := range inputs {
			env[name] = i&(1<<k) != 0
		}
		if e.Eval(env) {
			tt.Bits[i/64] |= 1 << (i % 64)
		}
	}
	return tt, nil
}

// Rows returns the number of assignments.
func (t *TruthTable) Rows() int { return 1 << len(t.Inputs) }

// Get returns the output for assignment index i.
func (t *TruthTable) Get(i int) bool { return t.Bits[i/64]&(1<<(i%64)) != 0 }

// String renders the table with one row per assignment, LSB-first inputs.
func (t *TruthTable) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Inputs, " "))
	sb.WriteString(" | f\n")
	for i := 0; i < t.Rows(); i++ {
		for k := range t.Inputs {
			if i&(1<<k) != 0 {
				sb.WriteString("1 ")
			} else {
				sb.WriteString("0 ")
			}
		}
		if t.Get(i) {
			sb.WriteString("| 1\n")
		} else {
			sb.WriteString("| 0\n")
		}
	}
	return sb.String()
}
