package experiments

import (
	"context"

	"cppc/internal/core"
	"cppc/internal/cpu"
	"cppc/internal/fault"
	"cppc/internal/protect"
	"cppc/internal/tables"
)

// SpatialCoverageCtx runs the Monte-Carlo cross-check of Secs. 4.6 and
// 4.11: spatial-MBE correction rates for square faults from 1x1 to 8x8,
// per CPPC configuration, with the baselines alongside. Each shape's
// trials fan across the context's worker hint (WithCellWorkers) with
// bit-identical rates at any count.
func SpatialCoverageCtx(ctx context.Context, trials int, seed int64) (string, error) {
	configs := []struct {
		name string
		mk   protect.Factory
	}{
		{"cppc 1 pair + shifting", schemes["cppc"]},
		{"cppc 2 pairs + shifting", schemes["cppc-2pair"]},
		{"cppc 8 pairs, no shifting", cpu.CPPCFactory(core.FullCorrectionConfig())},
		{"cppc basic (no shifting)", schemes["cppc-noshift"]},
		{"parity-1d", schemes["parity-1d"]},
	}
	out := "Secs. 4.6/4.11: spatial-MBE correction rate by square size (rows = height, cols = width)\n"
	for _, cfg := range configs {
		m, err := fault.CoverageMatrixCfgCtx(ctx, fault.CampaignCacheConfig(), cfg.mk, 8, trials, seed)
		if err != nil {
			return "", err
		}
		out += "\n" + cfg.name + ":\n" + fault.FormatMatrix(m)
	}
	// SECDED lives on its physically bit-interleaved layout (8 words per
	// row, adjacent cells from different words): an 8-wide burst becomes
	// eight single-bit errors, each correctable per codeword.
	m, err := fault.CoverageMatrixCfgCtx(ctx, fault.InterleavedCampaignConfig(), schemes["secded"], 8, trials, seed)
	if err != nil {
		return "", err
	}
	out += "\nsecded + 8-way physical bit interleaving:\n" + fault.FormatMatrix(m)
	return out, nil
}

// PairAblationCtx summarizes the area/reliability trade-off of Secs. 3.4
// and 4.6: correction rate of 8x8 faults and aliasing exposure per
// register pair count. Trials fan out up to the context's worker hint.
func PairAblationCtx(ctx context.Context, trials int, seed int64) (string, error) {
	t := tables.New("Ablation: register pairs vs. 8x8 spatial coverage",
		"pairs", "corrected", "DUE", "SDC")
	for _, pairs := range []int{1, 2, 4, 8} {
		cfg := core.Config{ParityDegree: 8, RegisterPairs: pairs, ByteShifting: pairs < 8}
		got, err := fault.RunSpatialTrialsCfgCtx(ctx, fault.CampaignCacheConfig(), cpu.CPPCFactory(cfg), 8, 8, trials, seed)
		if err != nil {
			return "", err
		}
		t.Addf(pairs, got.Corrected, got.DUE, got.SDC)
	}
	return t.String(), nil
}

// ParityAblationCtx sweeps the parity degree (Sec. 3.4's first scaling
// knob) against temporal two-bit faults. Trials fan out up to the
// context's worker hint.
func ParityAblationCtx(ctx context.Context, trials int, seed int64) (string, error) {
	t := tables.New("Ablation: parity degree vs. temporal 2-bit faults",
		"degree", "corrected", "DUE", "SDC")
	for _, degree := range []int{1, 2, 4, 8} {
		cfg := core.Config{ParityDegree: degree, RegisterPairs: 1, ByteShifting: true}
		got, err := fault.RunTemporalTrialsCtx(ctx, cpu.CPPCFactory(cfg), 2, trials, seed)
		if err != nil {
			return "", err
		}
		t.Addf(degree, got.Corrected, got.DUE, got.SDC)
	}
	return t.String(), nil
}
