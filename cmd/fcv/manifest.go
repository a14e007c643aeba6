package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// buildManifest assembles the run manifest from a fleet report and its
// telemetry collector; the heavy lifting lives in fleet.BuildManifest
// so the serve daemon emits the same document shape.
func buildManifest(tool string, rep *fleet.Report, col *obs.Collector) *obs.Manifest {
	return fleet.BuildManifest(tool, rep, col)
}

// runManifestCheck is the manifest-check subcommand: validate a run
// manifest against the fcv-run-manifest/v2 schema; any other schema ID
// is a violation.
//
//	fcv manifest-check <manifest.json>
//	fcv manifest-check -print-schema
//
// Exit codes: 0 valid, 1 schema violation, 2 operational failure
// (unreadable file). -print-schema writes the JSON Schema document to
// stdout and exits 0 — the same bytes pinned by the golden-file test.
func runManifestCheck(args []string, out *os.File) error {
	fs := flag.NewFlagSet("manifest-check", flag.ContinueOnError)
	printSchema := fs.Bool("print-schema", false, "print the manifest JSON Schema and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *printSchema {
		_, err := out.Write(obs.SchemaJSON())
		return err
	}
	rest := fs.Args()
	if len(rest) < 1 {
		return fmt.Errorf("manifest-check needs a manifest JSON file (or -print-schema)")
	}
	var failed int
	for _, path := range rest {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		m, err := obs.ParseManifest(data)
		if err != nil {
			fmt.Fprintf(out, "manifest-check: %s: INVALID: %v\n", path, err)
			failed++
			continue
		}
		fmt.Fprintf(out, "manifest-check: %s: ok (schema %s)\n", path, m.Schema)
	}
	if failed > 0 {
		return fmt.Errorf("%w: %d of %d file(s) failed validation", errManifestInvalid, failed, len(rest))
	}
	return nil
}
