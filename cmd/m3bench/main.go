// Command m3bench regenerates the paper's evaluation: every table and
// figure from §5, plus this repository's own experiments. Run it with
// -e all (default), -e smoke (the fast CI subset), or a comma-separated
// experiment list; -json writes the machine-readable result file and
// -diff compares two such files under the regression tolerances. The
// experiments and their tables come from internal/bench's registry
// (bench.Experiments); this command writes them out.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
)

// expHelp renders the -e flag help from the registry.
func expHelp() string {
	return "experiments to run: all, smoke, or comma-separated of " + strings.Join(bench.ExperimentNames(), ",")
}

func main() {
	expList := flag.String("e", "all", expHelp())
	csvDir := flag.String("csv", "", "directory to additionally write CSV tables into")
	jsonOut := flag.String("json", "", "file to write the schema-versioned bench JSON into")
	capture := flag.Bool("capture", false, "bundle run captures (profile, metrics, histograms, blame) per experiment workload into the bench JSON, for -diff attribution")
	diff := flag.Bool("diff", false, "compare two bench JSON files: m3bench -diff old.json new.json; exits 1 on regression")
	report := flag.String("report", "", "with -diff: write the machine-readable attribution report (diff-report JSON) to this file")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "m3bench: -diff needs exactly two arguments: old.json new.json")
			os.Exit(2)
		}
		if err := runDiff(flag.Arg(0), flag.Arg(1), *report); err != nil {
			fmt.Fprintf(os.Stderr, "m3bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	exps, err := bench.SelectExperiments(*expList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "m3bench: %v\n", err)
		os.Exit(2)
	}
	out := &bench.BenchFile{Schema: bench.BenchSchema}
	for _, e := range exps {
		start := time.Now()
		fmt.Printf("%s: %s\n", e.Name, e.Desc)
		rep, err := e.Run()
		if err == nil {
			err = rep.WriteText(os.Stdout)
		}
		if err == nil {
			err = writeCSV(*csvDir, rep.Tables)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "m3bench: %s failed: %v\n", e.Name, err)
			os.Exit(1)
		}
		out.Experiments = append(out.Experiments, rep.Metrics)
		fmt.Printf("  [%s took %.1fs wall clock]\n\n", e.Name, time.Since(start).Seconds())
	}

	if *capture {
		caps, err := bench.CaptureAll(exps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "m3bench: capture failed: %v\n", err)
			os.Exit(1)
		}
		out.Captures = caps
		for _, c := range caps {
			fmt.Printf("captured workload %s (%d profile paths, %d metrics, %d histograms)\n",
				c.Workload, len(c.Profile), len(c.Metrics), len(c.Hists))
		}
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "m3bench: %v\n", err)
			os.Exit(1)
		}
		if err := out.WriteJSON(f); err == nil {
			err = f.Close()
		} else {
			_ = f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "m3bench: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}

// writeCSV writes each table to dir/<name>.csv; an empty dir writes
// nothing.
func writeCSV(dir string, tables []*bench.Table) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range tables {
		path := filepath.Join(dir, t.Name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", path)
	}
	return nil
}

// runDiff loads both files, gates on the comparison, and — when the
// gate is red — attributes every regression via the files' run
// captures (docs/OBSERVABILITY.md, "reading a red gate").
func runDiff(oldPath, newPath, reportPath string) error {
	load := func(path string) (*bench.BenchFile, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return bench.ReadBenchJSON(data)
	}
	oldFile, err := load(oldPath)
	if err != nil {
		return err
	}
	newFile, err := load(newPath)
	if err != nil {
		return err
	}
	d := bench.DiffBench(oldFile, newFile)
	if err := d.Write(os.Stdout); err != nil {
		return err
	}
	rep, err := bench.Attribute(d, oldFile, newFile)
	if err != nil {
		return err
	}
	if d.Failed() {
		if err := rep.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if reportPath != "" {
		f, err := os.Create(reportPath)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err == nil {
			err = f.Close()
		} else {
			_ = f.Close()
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", reportPath, err)
		}
		fmt.Printf("wrote %s\n", reportPath)
	}
	if d.Failed() {
		return fmt.Errorf("regressed past tolerance: %s", d.Headline(8))
	}
	return nil
}
