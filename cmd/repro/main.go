// Command repro regenerates every table and figure of the paper
// ("Designing High Performance CMOS Microprocessors Using Full Custom
// Techniques", DAC 1997) from the toolkit's models, printing the same
// rows the paper reports plus the paper's values for comparison.
//
// Usage:
//
//	repro            # run everything (the EXPERIMENTS.md content)
//	repro t1 f4 s2   # run selected experiments
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var known []string
	byID := make(map[string]experiments.Experiment, len(experiments.List))
	for _, e := range experiments.List {
		known = append(known, e.ID)
		byID[e.ID] = e
	}
	args := os.Args[1:]
	if len(args) == 0 {
		args = known
	}
	failed := false
	for _, id := range args {
		e, ok := byID[strings.ToLower(id)]
		if !ok {
			fmt.Fprintf(os.Stderr, "repro: unknown experiment %q (known: %s)\n", id, strings.Join(known, " "))
			os.Exit(2)
		}
		out, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %s: %v\n", id, err)
			failed = true
			continue
		}
		fmt.Println(out)
	}
	if failed {
		os.Exit(1)
	}
}
