package experiments

import (
	"context"
	"fmt"

	"cppc/internal/fault"
	"cppc/internal/tables"
)

// Accelerated-rate campaign parameters shared by every Monte-Carlo cell.
const (
	mcLambda  = 2e-7 // faults per bit per access, accelerated
	mcHorizon = 200_000
)

// MonteCarloSchemes returns the canonical scheme list of the validation,
// in row order. The names are the cell identifiers the daemon's shard
// planner uses; MonteCarloTable maps them to display labels.
func MonteCarloSchemes() []string { return []string{"parity-1d", "cppc"} }

// MonteCarloCell is one scheme's campaign result plus its analytic
// prediction evaluated at the campaign's own measured inputs.
type MonteCarloCell struct {
	Scheme   string
	Res      fault.MCResult
	Analytic float64
}

// MonteCarloCellCtx runs one scheme's accelerated-rate campaign. scheme
// must be one of MonteCarloSchemes.
func MonteCarloCellCtx(ctx context.Context, scheme string, trials int, seed int64) (MonteCarloCell, error) {
	var analytic func(fault.MCResult) float64
	switch scheme {
	case "parity-1d":
		analytic = func(r fault.MCResult) float64 {
			return fault.AnalyticParityMTTFAccesses(mcLambda, r.MeanDirtyBits)
		}
	case "cppc":
		analytic = func(r fault.MCResult) float64 {
			return fault.AnalyticDoubleFaultMTTFAccesses(mcLambda, r.MeanDirtyBits, r.MeanTavgAccesses, 8)
		}
	default:
		return MonteCarloCell{}, fmt.Errorf("montecarlo: unknown scheme %q", scheme)
	}
	res, err := fault.MonteCarloMTTFCtx(ctx, schemes[scheme], mcLambda, trials, mcHorizon, seed)
	if err != nil {
		return MonteCarloCell{}, err
	}
	return MonteCarloCell{Scheme: scheme, Res: res, Analytic: analytic(res)}, nil
}

// MonteCarloTable renders the validation from per-scheme cells, which
// must be in MonteCarloSchemes order. The validation cross-checks the
// Table 3 analytical models with accelerated-rate lifetime testing (the
// PARMA methodology [22] the paper's Sec. 6.3 model derives from):
// faults arrive as a Poisson process over a live cache, and the measured
// mean time to failure is compared with the analytical prediction
// evaluated at the same rate and the campaign's own measured dirty
// population and Tavg.
func MonteCarloTable(trials int, cells []MonteCarloCell) string {
	t := tables.New(
		fmt.Sprintf("PARMA-style Monte-Carlo validation (lambda=%.0e/bit/access, %d trials)", mcLambda, trials),
		"scheme", "measured MTTF", "analytic MTTF", "ratio", "DUE", "SDC", "censored", "lethality")
	label := map[string]string{"parity-1d": "parity-1d", "cppc": "cppc (8 stripes, 1 pair)"}
	for _, c := range cells {
		name := label[c.Scheme]
		if name == "" {
			name = c.Scheme
		}
		t.Addf(name,
			fmt.Sprintf("%.0f", c.Res.MeanAccessesToFailure),
			fmt.Sprintf("%.0f", c.Analytic),
			fmt.Sprintf("%.2f", c.Res.MeanAccessesToFailure/c.Analytic),
			c.Res.DUEs, c.Res.SDCs, c.Res.Censored,
			fmt.Sprintf("%.3f", c.Res.MeasuredLethality()))
	}
	return t.String() +
		"ratios near 1 validate the Sec. 6.3 mathematics end to end; censored trials\n" +
		"outlived the horizon (their lifetime is an underestimate)\n"
}
