// Command experiments regenerates the reproduction's experiment tables
// (E1–E11; see DESIGN.md §3 and EXPERIMENTS.md).
//
// Usage:
//
//	experiments            # run everything
//	experiments -run E6    # one experiment
//	experiments -list      # list experiments
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tinymlops/internal/experiments"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// run is the command's body: it parses args and writes the listing or the
// tables to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	runFlag := fs.String("run", "all", "comma-separated experiment IDs (E1..E11) or 'all'")
	listFlag := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *listFlag {
		for _, e := range experiments.All() {
			fmt.Fprintf(w, "%-4s %-10s %s\n", e.ID, e.Paper, e.Title)
		}
		return nil
	}
	if *runFlag == "all" {
		return experiments.RunAll(w)
	}
	for _, id := range strings.Split(*runFlag, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		e, ok := experiments.ByID(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		if err := experiments.RunOne(w, e); err != nil {
			return err
		}
	}
	return nil
}
