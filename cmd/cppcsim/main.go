// Command cppcsim runs one benchmark on one protection scheme through the
// Table 1 processor and memory hierarchy, printing CPI, cache statistics
// and dynamic energy:
//
//	cppcsim -bench mcf -scheme cppc
//	cppcsim -bench gzip -scheme parity-2d -n 2000000
//	cppcsim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"cppc/internal/experiments"
	"cppc/internal/tables"
	"cppc/internal/trace"
)

func main() {
	var (
		bench  = flag.String("bench", "gzip", "benchmark profile name")
		scheme = flag.String("scheme", "cppc", "protection: parity-1d, cppc, secded, parity-2d, cppc-silent")
		n      = flag.Int("n", 1_500_000, "instructions to measure")
		warmup = flag.Int("warmup", 500_000, "instructions to warm the caches")
		seed   = flag.Int64("seed", 1, "workload seed")
		list   = flag.Bool("list", false, "list benchmark profiles and exit")
		record = flag.String("record", "", "write the benchmark's instruction trace to this file and exit")
		replay = flag.String("tracefile", "", "replay a recorded trace instead of a synthetic benchmark")
	)
	flag.Parse()

	if *record != "" {
		prof, ok := trace.ProfileByName(*bench)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q (use -list)\n", *bench)
			os.Exit(1)
		}
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := trace.WriteTrace(f, prof.NewGen(*seed), *warmup+*n); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d instructions of %s to %s\n", *warmup+*n, *bench, *record)
		return
	}

	if *list {
		t := tables.New("benchmark profiles", "name", "loads", "stores", "working set", "note")
		for _, p := range trace.Profiles() {
			note := ""
			switch p.Name {
			case "mcf":
				note = "miss-heavy (paper: ~80% L2 miss rate)"
			case "swim", "mgrid", "applu":
				note = "FP streaming"
			}
			t.Addf(p.Name, p.LoadFrac, p.StoreFrac,
				fmt.Sprintf("%dKB", p.WorkingSetBytes/1024), note)
		}
		fmt.Print(t.String())
		return
	}

	id, err := experiments.ParseScheme(*scheme)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	budget := experiments.Budget{Warmup: *warmup, Measure: *n, Seed: *seed}

	var src trace.Source
	workload := *bench
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		src, err = trace.ParseTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		workload = *replay
	} else {
		prof, ok := trace.ProfileByName(*bench)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q (use -list)\n", *bench)
			os.Exit(1)
		}
		src = prof.NewGen(*seed)
	}
	run, err := experiments.SimulateSourceCtx(context.Background(), workload, src, id, budget)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	t := tables.New(fmt.Sprintf("%s on %s (%d instructions)", *scheme, workload, *n),
		"metric", "L1", "L2")
	t.Addf("CPI", fmt.Sprintf("%.3f", run.CPI), "")
	t.Addf("accesses", run.L1.Accesses(), run.L2.Accesses())
	t.Addf("miss rate", tables.Pct(run.L1.MissRate()), tables.Pct(run.L2.MissRate()))
	t.Addf("read-before-writes", run.L1.ReadBeforeWrite, run.L2.ReadBeforeWrite)
	t.Addf("write-backs", run.L1.WriteBack, run.L2.WriteBack)
	t.Addf("dirty fraction", tables.Pct(run.L1Gran.Dirty), tables.Pct(run.L2Gran.Dirty))
	t.Addf("Tavg (cycles)", fmt.Sprintf("%.0f", run.L1Gran.Tavg), fmt.Sprintf("%.0f", run.L2Gran.Tavg))

	e1, e2 := run.Energy()
	t.Addf("dynamic energy (uJ)",
		fmt.Sprintf("%.2f", e1.Total()/1e6), fmt.Sprintf("%.2f", e2.Total()/1e6))
	fmt.Print(t.String())
}
