// Command repro regenerates every table and figure of the paper's
// evaluation section plus the quantitative claims of Secs. 4.6-4.8:
//
//	repro                  # everything, default budget
//	repro -quick           # smaller instruction budget
//	repro -table1 -fig10   # selected experiments only
//
// Every sweep (the benchmark x scheme suite, Sec. 7, the L3 study and
// the fault campaigns) runs as a job on an in-process internal/service,
// the same planner, scheduler and renderers cppcd serves. Output is
// textual tables; EXPERIMENTS.md records a reference run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"cppc/internal/experiments"
	"cppc/internal/service"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "use the reduced instruction budget")
		seed     = flag.Int64("seed", 1, "workload seed")
		trials   = flag.Int("trials", 20, "Monte-Carlo trials per fault shape")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "workers running sweep cells, and trial workers per coverage or ablation campaign")
		timeout  = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
		table1   = flag.Bool("table1", false, "print Table 1 (configuration)")
		fig10    = flag.Bool("fig10", false, "reproduce Figure 10 (CPI)")
		fig11    = flag.Bool("fig11", false, "reproduce Figure 11 (L1 energy)")
		fig12    = flag.Bool("fig12", false, "reproduce Figure 12 (L2 energy)")
		table2   = flag.Bool("table2", false, "reproduce Table 2 (dirty data)")
		table3   = flag.Bool("table3", false, "reproduce Table 3 (MTTF)")
		sec47    = flag.Bool("sec47", false, "reproduce Sec. 4.7 (aliasing MTTF)")
		sec48    = flag.Bool("sec48", false, "reproduce Sec. 4.8 (barrel shifter)")
		sec7     = flag.Bool("sec7", false, "Sec. 7 multiprocessor extension (coherence vs. RBW)")
		sec51    = flag.Bool("sec51", false, "Sec. 5.1 area comparison")
		mc       = flag.Bool("montecarlo", false, "PARMA-style Monte-Carlo validation of the MTTF models")
		fieldmc  = flag.Bool("fieldmc", false, "field-mix fault campaign: footprint x lifetime x rate grid (opt-in, not part of the default run)")
		l3       = flag.Bool("l3", false, "Sec. 7 L3 CPPC study")
		csv      = flag.Bool("csv", false, "emit the figures as CSV instead of text tables")
		coverage = flag.Bool("coverage", false, "spatial coverage matrices (Secs. 4.6/4.11)")
		ablate   = flag.Bool("ablate", false, "register-pair and parity-degree ablations")
	)
	flag.Parse()
	// A job spec reads seed 0 and trials < 1 as "use the default", so
	// passing them on would silently run seed 1 or 20 trials.
	if *seed == 0 || *trials < 1 {
		fmt.Fprintln(os.Stderr, "repro: -seed must be nonzero and -trials at least 1")
		flag.Usage()
		os.Exit(2)
	}

	// SIGINT/SIGTERM (and -timeout) cancel the context; the simulation
	// loops poll it, so an interrupted run exits cleanly mid-suite
	// instead of being killed mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "repro: interrupted: %v\n", err)
		os.Exit(1)
	}
	all := !(*table1 || *fig10 || *fig11 || *fig12 || *table2 || *table3 ||
		*sec47 || *sec48 || *sec7 || *sec51 || *mc || *fieldmc || *l3 || *coverage || *ablate)

	budget, budgetName := experiments.DefaultBudget(), "default"
	if *quick {
		budget, budgetName = experiments.QuickBudget(), "quick"
	}
	budget.Seed = *seed

	svc := service.New(service.Config{Workers: *parallel})
	defer svc.Shutdown(context.Background())
	runJob := func(spec service.JobSpec) *service.Result {
		res, err := svc.Run(ctx, spec)
		if err != nil {
			fail(err)
		}
		return res
	}

	if all || *table1 {
		fmt.Println(experiments.Table1())
	}

	var figures []string
	for _, f := range []struct {
		name string
		on   bool
	}{{"fig10", *fig10}, {"fig11", *fig11}, {"fig12", *fig12}, {"table2", *table2}, {"table3", *table3}} {
		if !all && !f.on {
			continue
		}
		if *csv && strings.HasPrefix(f.name, "fig") {
			f.name += ".csv"
		}
		figures = append(figures, f.name)
	}
	if len(figures) > 0 {
		fmt.Fprintf(os.Stderr, "simulating %d benchmarks x 4 schemes (%d+%d instructions each, %d-way parallel)...\n",
			15, budget.Warmup, budget.Measure, *parallel)
		res := runJob(service.JobSpec{Kind: service.KindSuite, Budget: budgetName, Seed: *seed, Figures: figures})
		for _, f := range figures {
			fmt.Println(res.Artifacts[f])
		}
	}
	if all || *sec47 {
		fmt.Println(experiments.Section47())
	}
	if all || *sec48 {
		fmt.Println(experiments.Section48())
	}
	if all || *sec7 {
		fmt.Fprintln(os.Stderr, "running the timed Sec. 7 multiprocessor sweep...")
		// The plain-CPPC sweep, then the same cells priced with
		// silent-store elision, so the saved write and fold energy reads
		// off cell by cell. The second job simulates nothing.
		for _, silent := range []bool{false, true} {
			res := runJob(service.JobSpec{Kind: service.KindMulticore, Sweep: true, Silent: silent, Budget: budgetName, Seed: *seed})
			fmt.Println(res.Artifacts["sec7"])
		}
	}
	if all || *sec51 {
		fmt.Println(experiments.Section51Area(1))
	}
	if all || *mc {
		fmt.Fprintln(os.Stderr, "running Monte-Carlo lifetime campaigns...")
		fmt.Println(runJob(service.JobSpec{Kind: service.KindMonteCarlo, Trials: *trials, Seed: *seed}).Artifacts["montecarlo"])
	}
	// The field-mix grid is opt-in (not part of `all`): it is the one
	// campaign whose trials run a full exercise window each, and keeping
	// it out of the default run keeps repro_output.txt stable.
	if *fieldmc {
		fmt.Fprintf(os.Stderr, "running field-mix fault campaigns (%d trials/cell)...\n", *trials)
		fmt.Println(runJob(service.JobSpec{Kind: service.KindFieldMC, Trials: *trials, Seed: *seed}).Artifacts["fieldmc"])
	}
	if all || *l3 {
		fmt.Fprintln(os.Stderr, "running the L3 study...")
		fmt.Println(runJob(service.JobSpec{Kind: service.KindL3, Sweep: true, Budget: budgetName, Seed: *seed}).Artifacts["l3"])
	}
	// The remaining campaigns fan their trials across -parallel workers;
	// the tables are bit-identical whatever the count (the trial executor
	// replays its reduction in trial order — DESIGN.md, "Deterministic
	// trial parallelism").
	campCtx := experiments.WithCellWorkers(ctx, *parallel)
	if all || *coverage {
		fmt.Fprintf(os.Stderr, "running spatial coverage campaigns (%d trials/shape)...\n", *trials)
		out, err := experiments.SpatialCoverageCtx(campCtx, *trials, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(out)
	}
	if all || *ablate {
		for _, run := range []func() (string, error){
			func() (string, error) { return experiments.PairAblationCtx(campCtx, *trials, *seed) },
			func() (string, error) { return experiments.ParityAblationCtx(campCtx, *trials, *seed) },
			func() (string, error) { return experiments.SinglePortAblation(campCtx, budget) },
			func() (string, error) { return experiments.EarlyWritebackAblation(campCtx, 200_000, *seed) },
			func() (string, error) { return experiments.ICacheAblation(campCtx, budget) },
			func() (string, error) { return experiments.SilentStoreAblation(campCtx, budget) },
		} {
			out, err := run()
			if err != nil {
				fail(err)
			}
			fmt.Println(out)
		}
	}
}
