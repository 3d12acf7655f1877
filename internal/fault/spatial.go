package fault

import (
	"context"
	"fmt"
	"strings"

	"cppc/internal/cache"
	"cppc/internal/protect"
)

// Counts tallies trial outcomes.
type Counts struct {
	Corrected, DUE, SDC int
}

// Total is the trial count.
func (c Counts) Total() int { return c.Corrected + c.DUE + c.SDC }

// CoverageRate is the fraction of trials fully corrected.
func (c Counts) CoverageRate() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.Corrected) / float64(c.Total())
}

func (c Counts) String() string {
	return fmt.Sprintf("corrected=%d DUE=%d SDC=%d", c.Corrected, c.DUE, c.SDC)
}

// CampaignCacheConfig is the small dense cache used for injection
// trials: direct-mapped so spatial placement is easy to reason about,
// with one block per physical row.
func CampaignCacheConfig() cache.Config {
	cfg, err := cache.Config{
		Name: "campaign", SizeBytes: 4096, Ways: 1, BlockBytes: 32,
		DirtyGranuleWords: 1, HitLatencyCycles: 2,
	}.Validate()
	if err != nil {
		panic(err)
	}
	return cfg
}

// InterleavedCampaignConfig is the campaign cache with 8-way physical
// bit interleaving (8 words per row), the layout the paper pairs with
// SECDED.
func InterleavedCampaignConfig() cache.Config {
	cfg, err := cache.Config{
		Name: "campaign-il", SizeBytes: 4096, Ways: 1, BlockBytes: 32,
		DirtyGranuleWords: 1, HitLatencyCycles: 2,
		WordsPerRow: 8, BitInterleaved: true,
	}.Validate()
	if err != nil {
		panic(err)
	}
	return cfg
}

// RunSpatialTrialsCfgCtx runs `trials` independent spatial-fault
// injections of an HxW square, each against a fresh populated cache of
// layout ccfg. Cancellation is polled between trials, and trials run in
// parallel up to the context's worker hint; trial i runs on stream
// seed+i whatever the worker count, so the counts are bit-identical to
// the sequential loop's. A square that does not fit the physical array
// is an error.
func RunSpatialTrialsCfgCtx(ctx context.Context, ccfg cache.Config, mk protect.Factory, h, w, trials int, seed int64) (Counts, error) {
	if l := ccfg.Layout(); h < 1 || w < 1 || h > l.Rows() || w > l.RowBits() {
		return Counts{}, fmt.Errorf("fault: a %dx%d square does not fit the %d-row x %d-bit array", h, w, l.Rows(), l.RowBits())
	}
	res, err := runTrials(ctx, trials, func(_ context.Context, a *Arena, i int) (Outcome, error) {
		camp := a.newCampaign(ccfg, mk, seed+int64(i))
		defer a.endTrial()
		camp.Populate(4000, 8192)
		if camp.InjectSpatial(h, w) == 0 {
			return Corrected, nil // nothing flipped: benign placement
		}
		return camp.Probe(), nil
	})
	if err != nil {
		return Counts{}, err
	}
	var out Counts
	for _, o := range res {
		out.note(o)
	}
	return out, nil
}

// RunTemporalTrialsCtx injects `bits` independent single-bit flips at
// random resident words (temporal multi-bit when bits > 1), per trial.
// Cancellation is polled between trials, and trials run in parallel up
// to the context's worker hint; counts are bit-identical at any worker
// count.
func RunTemporalTrialsCtx(ctx context.Context, mk protect.Factory, bits, trials int, seed int64) (Counts, error) {
	res, err := runTrials(ctx, trials, func(_ context.Context, a *Arena, i int) (Outcome, error) {
		camp := a.newCampaign(CampaignCacheConfig(), mk, seed+int64(i))
		defer a.endTrial()
		camp.Populate(4000, 8192)
		flipped := 0
		for flipped < bits {
			addr := uint64(camp.rng.Intn(8192/8)) * 8
			if camp.InjectWord(addr, 1<<uint(camp.rng.Intn(64))) {
				flipped++
			}
		}
		return camp.Probe(), nil
	})
	if err != nil {
		return Counts{}, err
	}
	var out Counts
	for _, o := range res {
		out.note(o)
	}
	return out, nil
}

// CoverageMatrixCfgCtx sweeps spatial squares from 1x1 to maxSize x
// maxSize over layout ccfg and returns the per-shape counts, indexed
// [height-1][width-1]. Cancellation is polled between trials.
func CoverageMatrixCfgCtx(ctx context.Context, ccfg cache.Config, mk protect.Factory, maxSize, trials int, seed int64) ([][]Counts, error) {
	m := make([][]Counts, maxSize)
	for h := 1; h <= maxSize; h++ {
		m[h-1] = make([]Counts, maxSize)
		for w := 1; w <= maxSize; w++ {
			counts, err := RunSpatialTrialsCfgCtx(ctx, ccfg, mk, h, w, trials, seed+int64(h*100+w))
			if err != nil {
				return nil, err
			}
			m[h-1][w-1] = counts
		}
	}
	return m, nil
}

// FormatMatrix renders a coverage matrix as rows of correction rates.
func FormatMatrix(m [][]Counts) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4s", "HxW")
	for w := 1; w <= len(m); w++ {
		fmt.Fprintf(&b, "%7d", w)
	}
	b.WriteByte('\n')
	for h := range m {
		fmt.Fprintf(&b, "%4d", h+1)
		for w := range m[h] {
			fmt.Fprintf(&b, "%7.2f", m[h][w].CoverageRate())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
