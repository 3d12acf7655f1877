// Package service exposes the simulator as a long-running daemon: a JSON
// HTTP API to submit simulation jobs (the paper's figure/table matrix,
// single-cell simulations, and Monte-Carlo fault campaigns), a bounded
// worker pool with a FIFO queue and per-job cancellation, a job table
// that answers a resubmitted spec from its finished job so repeated
// figure regenerations are free, streaming job progress, and a /metrics endpoint. cmd/cppcd is
// the thin binary around it. The same planner, scheduler and renderers
// also serve in-process callers through Service.Run: cmd/repro runs
// every sweep of the paper's evaluation that way.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"cppc/internal/experiments"
	"cppc/internal/trace"
)

// Job kinds accepted by POST /jobs.
const (
	KindSuite      = "suite"      // full benchmark x scheme matrix + figures
	KindSimulate   = "simulate"   // one benchmark under one protection scheme
	KindMonteCarlo = "montecarlo" // PARMA-style Monte-Carlo lifetime campaign
	KindMulticore  = "multicore"  // timed Sec. 7 multiprocessor cell
	KindL3         = "l3"         // timed Sec. 7 three-level L3 cell
	KindFieldMC    = "fieldmc"    // field-mix footprint x lifetime x rate campaign
)

// suiteArtifacts are the outputs a suite job renders by default, in
// canonical order.
var suiteArtifacts = []string{"fig10", "fig11", "fig12", "table2", "table3"}

// suiteRenderers renders every artifact a suite job can name: the
// default set plus the figures' CSV exports, which are rendered only on
// request.
var suiteRenderers = map[string]func(*experiments.Suite) string{
	"fig10":     (*experiments.Suite).Figure10,
	"fig11":     (*experiments.Suite).Figure11,
	"fig12":     (*experiments.Suite).Figure12,
	"table2":    (*experiments.Suite).Table2String,
	"table3":    (*experiments.Suite).Table3,
	"fig10.csv": (*experiments.Suite).Figure10CSV,
	"fig11.csv": (*experiments.Suite).Figure11CSV,
	"fig12.csv": (*experiments.Suite).Figure12CSV,
}

// JobSpec is the JSON body of POST /jobs. Unset fields take defaults
// during normalization, so two specs that mean the same work hash to the
// same cache key regardless of how explicit the client was.
type JobSpec struct {
	Kind string `json:"kind"`

	// Budget names an instruction budget: "quick" or "default". Warmup
	// and Measure, when both set, override it with a custom budget.
	Budget  string `json:"budget,omitempty"`
	Warmup  int    `json:"warmup,omitempty"`
	Measure int    `json:"measure,omitempty"`
	Seed    int64  `json:"seed,omitempty"`

	Bench  string `json:"bench,omitempty"`  // simulate: benchmark name
	Scheme string `json:"scheme,omitempty"` // simulate: protection scheme

	Trials int `json:"trials,omitempty"` // montecarlo/fieldmc: trials per cell

	// Fieldmc cell coordinates (experiments.FieldPoint). All empty on
	// the sweep form, which plans into every (scheme, point) cell; all
	// set (with Scheme) on the cell form the sweep shards into.
	Footprint string `json:"footprint,omitempty"` // word | col | row | bank
	Lifetime  string `json:"lifetime,omitempty"`  // transient | intermittent | stuck
	Rate      string `json:"rate,omitempty"`      // x1 | x4

	// Multicore jobs: core count and the fraction of each core's memory
	// accesses that target the shared region. Silent renders the cells
	// priced with silent-store elision in both cache levels; the cells
	// are the plain job's, so it stays in the job's hash but in no cell's.
	Cores      int     `json:"cores,omitempty"`
	SharedFrac float64 `json:"shared_frac,omitempty"`
	Silent     bool    `json:"silent,omitempty"`

	// Sweep turns a multicore or l3 job into the full Sec. 7 sweep: the
	// canonical (cores, shared_frac) matrix over Bench for multicore, the
	// fixed large-footprint benchmark set for l3. Sweep jobs shard into
	// per-cell sub-jobs scheduled across the whole worker pool.
	Sweep bool `json:"sweep,omitempty"`

	// Figures selects which suite artifacts are rendered: any of fig10
	// fig11 fig12 table2 table3, plus fig10.csv fig11.csv fig12.csv for
	// the figures as CSV. Empty means the first five.
	Figures []string `json:"figures,omitempty"`
}

// normalize validates the spec and fills every defaulted field, returning
// the canonical form used for hashing and execution.
func (s JobSpec) normalize() (JobSpec, error) {
	n := s
	switch n.Kind {
	case KindSuite, KindSimulate, KindMonteCarlo, KindMulticore, KindL3, KindFieldMC:
	case "":
		return n, fmt.Errorf("missing job kind (want %s, %s, %s, %s, %s or %s)",
			KindSuite, KindSimulate, KindMonteCarlo, KindMulticore, KindL3, KindFieldMC)
	default:
		return n, fmt.Errorf("unknown job kind %q", n.Kind)
	}

	if n.Seed == 0 {
		n.Seed = 1
	}
	if n.Warmup != 0 || n.Measure != 0 {
		if n.Warmup < 0 || n.Measure <= 0 {
			return n, fmt.Errorf("custom budget needs warmup >= 0 and measure > 0")
		}
		n.Budget = "custom"
	} else {
		switch n.Budget {
		case "", "default":
			n.Budget = "default"
		case "quick":
		default:
			return n, fmt.Errorf("unknown budget %q (want quick or default)", n.Budget)
		}
	}
	if n.Sweep && n.Kind != KindMulticore && n.Kind != KindL3 {
		return n, fmt.Errorf("sweep applies to %s and %s jobs only", KindMulticore, KindL3)
	}

	switch n.Kind {
	case KindSuite:
		if n.Bench != "" || n.Scheme != "" {
			return n, fmt.Errorf("suite jobs take no bench/scheme")
		}
		n.Trials = 0
		seen := map[string]bool{}
		var figs []string
		for _, f := range n.Figures {
			if suiteRenderers[f] == nil {
				return n, fmt.Errorf("unknown figure %q (want one of %v, or fig10.csv, fig11.csv, fig12.csv)", f, suiteArtifacts)
			}
			if !seen[f] {
				seen[f] = true
				figs = append(figs, f)
			}
		}
		all := len(figs) == len(suiteArtifacts)
		for _, f := range suiteArtifacts {
			all = all && seen[f]
		}
		if all {
			figs = nil // "all" is the canonical form
		}
		sort.Strings(figs)
		n.Figures = figs
	case KindSimulate:
		if _, ok := trace.ProfileByName(n.Bench); !ok {
			return n, fmt.Errorf("unknown benchmark %q", n.Bench)
		}
		if _, err := experiments.ParseScheme(n.Scheme); err != nil {
			return n, err
		}
		n.Trials = 0
		n.Figures = nil
	case KindMonteCarlo:
		if n.Bench != "" {
			return n, fmt.Errorf("montecarlo jobs take no bench")
		}
		if n.Scheme != "" {
			// A single-scheme campaign: the cell form the full validation
			// shards into, also addressable directly.
			known := false
			for _, sch := range experiments.MonteCarloSchemes() {
				known = known || sch == n.Scheme
			}
			if !known {
				return n, fmt.Errorf("unknown montecarlo scheme %q (want one of %v)",
					n.Scheme, experiments.MonteCarloSchemes())
			}
		}
		if n.Trials <= 0 {
			n.Trials = 20
		}
		n.Figures = nil
		n.Budget, n.Warmup, n.Measure = "", 0, 0 // campaigns have their own horizon
	case KindMulticore:
		if n.Scheme != "" {
			return n, fmt.Errorf("multicore jobs take no scheme (the hierarchy is CPPC end-to-end)")
		}
		if n.Bench == "" {
			n.Bench = "gzip"
		}
		if _, ok := trace.ProfileByName(n.Bench); !ok {
			return n, fmt.Errorf("unknown benchmark %q", n.Bench)
		}
		if n.Sweep {
			// The sweep's matrix is canonical (Section7Points); per-point
			// fields would be ambiguous.
			if n.Cores != 0 || n.SharedFrac != 0 {
				return n, fmt.Errorf("multicore sweep jobs take no cores/shared_frac (the Sec. 7 matrix is fixed)")
			}
		} else {
			if n.Cores == 0 {
				n.Cores = 4
			}
			if n.Cores < 1 || n.Cores > 32 {
				return n, fmt.Errorf("cores must be in [1,32], got %d", n.Cores)
			}
			if n.SharedFrac < 0 || n.SharedFrac > 1 {
				return n, fmt.Errorf("shared_frac must be in [0,1], got %v", n.SharedFrac)
			}
		}
		n.Trials = 0
		n.Figures = nil
	case KindFieldMC:
		if n.Bench != "" {
			return n, fmt.Errorf("fieldmc jobs take no bench")
		}
		coords := 0
		for _, f := range []string{n.Scheme, n.Footprint, n.Lifetime, n.Rate} {
			if f != "" {
				coords++
			}
		}
		switch coords {
		case 0:
			// The sweep form: every (scheme, grid point) cell.
		case 4:
			// A single grid cell, also addressable directly — it shares
			// its cache entry with the sweep's shard.
			known := false
			for _, sch := range experiments.FieldMCSchemes() {
				known = known || sch == n.Scheme
			}
			if !known {
				return n, fmt.Errorf("unknown fieldmc scheme %q (want one of %v)",
					n.Scheme, experiments.FieldMCSchemes())
			}
			pt := experiments.FieldPoint{Footprint: n.Footprint, Lifetime: n.Lifetime, Rate: n.Rate}
			knownPt := false
			for _, p := range experiments.FieldMCPoints() {
				knownPt = knownPt || p == pt
			}
			if !knownPt {
				return n, fmt.Errorf("unknown fieldmc grid point %s (want footprint word|col|row|bank, lifetime transient|intermittent|stuck, rate x1|x4)", pt)
			}
		default:
			return n, fmt.Errorf("fieldmc jobs take either none or all of scheme/footprint/lifetime/rate")
		}
		if n.Trials <= 0 {
			n.Trials = 20
		}
		n.Figures = nil
		n.Budget, n.Warmup, n.Measure = "", 0, 0 // campaigns have their own horizon
	case KindL3:
		if n.Scheme != "" {
			return n, fmt.Errorf("l3 jobs take no scheme (parity vs. CPPC placement is the experiment)")
		}
		if n.Sweep {
			if n.Bench != "" {
				return n, fmt.Errorf("l3 sweep jobs take no bench (the large-footprint set is fixed)")
			}
		} else if n.Bench == "" {
			n.Bench = "mcf"
		}
		if !n.Sweep {
			if _, ok := trace.ProfileByName(n.Bench); !ok {
				return n, fmt.Errorf("unknown benchmark %q", n.Bench)
			}
		}
		n.Trials = 0
		n.Figures = nil
	}
	if n.Kind != KindMulticore {
		n.Cores, n.SharedFrac, n.Silent = 0, 0, false
	}
	if n.Kind != KindFieldMC {
		n.Footprint, n.Lifetime, n.Rate = "", "", ""
	}
	return n, nil
}

// planCells expands a normalized spec into its canonical cell specs, in
// aggregation order. Single-cell kinds plan into themselves, so a sweep's
// cells share cache entries with directly-submitted cell jobs — a suite
// and a simulate of one benchmark, or two multicore sweeps sharing core
// counts, reuse each other's work. Every returned spec is normalized
// (planning a cell spec yields itself).
func planCells(n JobSpec) []JobSpec {
	cell := func(c JobSpec) JobSpec {
		norm, err := c.normalize()
		if err != nil {
			panic("service: planned cell does not normalize: " + err.Error()) // internal invariant
		}
		return norm
	}
	base := JobSpec{Budget: n.Budget, Warmup: n.Warmup, Measure: n.Measure, Seed: n.Seed}
	switch {
	case n.Kind == KindSuite:
		cells := make([]JobSpec, 0, len(experiments.SuiteCells()))
		for _, sc := range experiments.SuiteCells() {
			c := base
			c.Kind, c.Bench, c.Scheme = KindSimulate, sc.Bench, sc.Scheme.String()
			cells = append(cells, cell(c))
		}
		return cells
	case n.Kind == KindMulticore:
		// Silent is a rendering choice: one cell carries both pricings,
		// so no cell spec carries it.
		pts := []experiments.MulticorePoint{{Cores: n.Cores, SharedFrac: n.SharedFrac}}
		if n.Sweep {
			pts = experiments.Section7Points()
		}
		cells := make([]JobSpec, 0, len(pts))
		for _, pt := range pts {
			c := base
			c.Kind, c.Bench, c.Cores, c.SharedFrac = KindMulticore, n.Bench, pt.Cores, pt.SharedFrac
			cells = append(cells, cell(c))
		}
		return cells
	case n.Kind == KindL3 && n.Sweep:
		benches := experiments.L3Benches()
		cells := make([]JobSpec, 0, len(benches))
		for _, b := range benches {
			c := base
			c.Kind, c.Bench = KindL3, b
			cells = append(cells, cell(c))
		}
		return cells
	case n.Kind == KindMonteCarlo && n.Scheme == "":
		schemes := experiments.MonteCarloSchemes()
		cells := make([]JobSpec, 0, len(schemes))
		for _, sch := range schemes {
			cells = append(cells, cell(JobSpec{Kind: KindMonteCarlo, Scheme: sch, Trials: n.Trials, Seed: n.Seed}))
		}
		return cells
	case n.Kind == KindFieldMC && n.Scheme == "":
		// Point-major, scheme-minor: the order FieldMCTable consumes.
		pts := experiments.FieldMCPoints()
		schemes := experiments.FieldMCSchemes()
		cells := make([]JobSpec, 0, len(pts)*len(schemes))
		for _, pt := range pts {
			for _, sch := range schemes {
				cells = append(cells, cell(JobSpec{
					Kind: KindFieldMC, Scheme: sch, Trials: n.Trials, Seed: n.Seed,
					Footprint: pt.Footprint, Lifetime: pt.Lifetime, Rate: pt.Rate,
				}))
			}
		}
		return cells
	default:
		// Already a single cell (simulate, l3 bench, single-scheme
		// montecarlo, fieldmc grid cell).
		return []JobSpec{n}
	}
}

// budget resolves the normalized spec's instruction budget.
func (s JobSpec) budget() experiments.Budget {
	var b experiments.Budget
	switch s.Budget {
	case "quick":
		b = experiments.QuickBudget()
	case "custom":
		b = experiments.Budget{Warmup: s.Warmup, Measure: s.Measure}
	default:
		b = experiments.DefaultBudget()
	}
	b.Seed = s.Seed
	return b
}

// hash is the content address of a normalized spec: a SHA-256 over its
// canonical JSON, so two submissions that compute the same result share
// one cache entry.
func (s JobSpec) hash() string {
	raw, err := json.Marshal(s) // struct marshaling is deterministic
	if err != nil {
		panic("service: spec marshal: " + err.Error()) // unreachable: plain fields
	}
	sum := sha256.Sum256(raw)
	// Hex-encoding into a stack array allocates only the returned string.
	var buf [2 * sha256.Size]byte
	hex.Encode(buf[:], sum[:])
	return string(buf[:])
}
