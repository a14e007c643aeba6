// Package shadow implements shadow-mode simulation, the mixed-mode
// verification method of §4.1:
//
//	"more popular at Digital Semiconductor is the shadow-mode
//	simulation. This latter simulator is a mixed mode simulation of full
//	design Behavioral/RTL with a part of the circuit logic shadowing
//	(not replacing) the corresponding RTL description."
//
// The full design runs in the FCL RTL simulator; a transistor-level
// block runs alongside in the switch-level simulator. On every clock
// phase the shadow drives the circuit's inputs from the RTL's signal
// values, pulses the circuit's clock nets according to the phase, and
// compares the circuit's outputs against the RTL signals they shadow.
// Mismatches are recorded, never patched back — the RTL remains the
// golden reference and the circuit is the thing on trial.
//
// PackedShadow (packed.go) is the shadow: both sides carry 64
// independent stimulus lanes, and every phase compares all of them. The
// one-vector Shadow lives in scalar_test.go as the oracle each packed
// lane is checked against.
package shadow

import (
	"fmt"
	"strconv"
	"strings"
)

// Binding wires circuit nodes to RTL signals. RTL references may select
// a bit of a wide signal with the "name[bit]" form.
type Binding struct {
	// Inputs maps circuit input node → RTL signal (driven RTL→circuit).
	Inputs map[string]string
	// Outputs maps circuit output node → RTL signal (compared).
	Outputs map[string]string
	// Clocks maps circuit clock node → RTL phase name; the node is
	// driven high while its phase executes and low otherwise.
	Clocks map[string]string
}

// splitRef parses "name" or "name[bit]".
func splitRef(ref string) (name string, bit int, err error) {
	if i := strings.Index(ref, "["); i >= 0 {
		if !strings.HasSuffix(ref, "]") {
			return "", 0, fmt.Errorf("shadow: malformed reference %q", ref)
		}
		b, err := strconv.Atoi(ref[i+1 : len(ref)-1])
		if err != nil || b < 0 || b > 63 {
			return "", 0, fmt.Errorf("shadow: bad bit index in %q", ref)
		}
		return ref[:i], b, nil
	}
	return ref, 0, nil
}
