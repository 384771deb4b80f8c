// Command tinymlops is a small operator CLI for the TinyMLOps platform:
// train demo models, inspect and convert model artifacts, derive quantized
// variants, and run a fleet simulation.
//
// Usage:
//
//	tinymlops train    -task blobs -out model.tmln
//	tinymlops info     -model model.tmln
//	tinymlops variants -model model.tmln
//	tinymlops export   -model model.tmln -out model.json
//	tinymlops import   -graph model.json -out model.tmln
//	tinymlops simulate -devices 2 -queries 150 -quota 100 -workers 8
//	tinymlops rollout  -devices 2 -drift
//	tinymlops chaos    -devices 600 -churn 0.05 -crash 0.2 -swarm
//	tinymlops offload  -devices 2 -queries 12 -rtt 200us
//	tinymlops settle   -devices 90 -overclaim 0.1 -replay 0.1 -wrong-version 0.1
//	tinymlops fed      -clients 1000 -aggregators 10 -rounds 3 -secure
//	tinymlops bench    -check -tolerance 0.25
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// subcommands maps each subcommand to its body. Bodies write their
// transcript to w, which is what the golden tests capture.
var subcommands = map[string]func(w io.Writer, args []string) error{
	"train":    cmdTrain,
	"info":     cmdInfo,
	"variants": cmdVariants,
	"export":   cmdExport,
	"import":   cmdImport,
	"simulate": cmdSimulate,
	"rollout":  cmdRollout,
	"chaos":    cmdChaos,
	"offload":  cmdOffload,
	"settle":   cmdSettle,
	"fed":      cmdFed,
	"bench":    cmdBench,
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "-h", "--help", "help":
		usage()
		return
	}
	cmd, ok := subcommands[os.Args[1]]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err := cmd(os.Stdout, os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `tinymlops — TinyMLOps platform CLI

subcommands:
  train      train a model on a synthetic task and write a .tmln artifact
  info       describe a model artifact (layers, params, MACs, op kinds)
  variants   derive quantized variants and print their size/accuracy table
  export     convert a .tmln artifact to the JSON exchange format
  import     convert a JSON exchange document back to a .tmln artifact
  simulate   run a fleet deployment + metered inference simulation
  rollout    run a staged OTA update (canary -> cohort -> fleet) with
             health gates, delta transfers and rollback on failure
  chaos      run a staged rollout under deterministic fault injection
             (churn, flaky networks, mid-flash crashes) and audit every
             fleet invariant; -swarm distributes the OTA peer-to-peer
             with a byte-conservation audit
  offload    serve queries through the live edge-cloud offload plane
             (split execution, batched cloud suffix service, replanning
             as connectivity changes), verified bit-exact
  settle     run verified pay-per-query settlement across a fleet with
             injected billing fraud (overclaimed ticks, replayed proofs,
             wrong-version relabeling) and print per-device verdicts
  fed        run hierarchical federated learning over a synthetic client
             fleet: edge-aggregator cohorts, masked (secure) aggregation,
             compressed updates, dropout/straggler weather on both tiers
  bench      run the tracked serving/offload/fed/swarm benchmark suite and rewrite
             the committed BENCH_<area>.json snapshots, or with -check
             fail on any ns/op or allocs/op regression against them

run 'tinymlops <subcommand> -h' for flags`)
}

func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ExitOnError)
}
