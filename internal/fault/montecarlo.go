package fault

import (
	"context"

	"cppc/internal/cache"
	"cppc/internal/protect"
)

// Monte-Carlo lifetime testing, in the spirit of the PARMA methodology
// [22] the paper's Sec. 6.3 model comes from: faults arrive as a Poisson
// process over the valid bits of a running cache (at an accelerated rate,
// so failures happen in simulable time), and the time to the first DUE or
// SDC is measured. Comparing the measured mean against the analytical
// double-fault model evaluated at the same accelerated rate validates the
// Table 3 mathematics end to end — detection-on-access, the Tavg
// vulnerability window, domain partitioning and all.

// MCResult summarizes a lifetime campaign. Times are in accesses (the
// simulation's clock).
type MCResult struct {
	Trials   int
	DUEs     int
	SDCs     int
	Censored int // trials that outlived the horizon

	// FaultsInjected counts every bit actually flipped across all trials;
	// with the failure counts it yields a measured per-fault lethality —
	// the empirical counterpart of the AVF the paper assumes (70%).
	FaultsInjected int

	MeanAccessesToFailure float64
	MeanDirtyBits         float64
	MeanTavgAccesses      float64
}

// MeasuredLethality is the fraction of injected faults that ended a
// trial: failures / faults. For detection-only parity this estimates the
// probability that a random strike lands in live dirty data — the paper's
// AVF knob, measured instead of assumed.
func (r MCResult) MeasuredLethality() float64 {
	if r.FaultsInjected == 0 {
		return 0
	}
	return float64(r.DUEs+r.SDCs) / float64(r.FaultsInjected)
}

// cancelPollAccesses is how often the trial loop polls its context.
const cancelPollAccesses = 8192

// mcTrial is one lifetime's contribution to the campaign reduction:
// what the trial-order replay in MonteCarloMTTFCtx accumulates.
type mcTrial struct {
	due, sdc, censored bool
	faultsInjected     int
	life               int
	dirtyBits          float64
	tavg               float64
}

// MonteCarloMTTFCtx runs `trials` independent lifetimes under fault rate
// lambda (faults per bit per access) with a horizon of maxAccesses. The
// context is polled between trials and every few thousand accesses
// inside a trial, so long campaigns abort promptly; on cancellation the
// partial campaign is discarded and the context's error returned.
// Trials run in parallel up to the context's worker hint. Trial i draws
// from stream seed+i whatever the worker count, and the
// lifetime/dirty/Tavg float accumulators replay in trial order after the
// barrier, so the result is bit-identical to the sequential loop's.
func MonteCarloMTTFCtx(ctx context.Context, mk protect.Factory, lambda float64, trials, maxAccesses int, seed int64) (MCResult, error) {
	perTrial, err := runTrials(ctx, trials, func(tctx context.Context, a *Arena, trial int) (mcTrial, error) {
		return a.mcTrial(tctx, mk, lambda, maxAccesses, seed+int64(trial))
	})
	if err != nil {
		return MCResult{}, err
	}
	var res MCResult
	res.Trials = trials
	var totalLife, totalDirty, totalTavg float64
	for _, t := range perTrial {
		switch {
		case t.due:
			res.DUEs++
		case t.sdc:
			res.SDCs++
		case t.censored:
			res.Censored++
		}
		res.FaultsInjected += t.faultsInjected
		totalLife += float64(t.life)
		totalDirty += t.dirtyBits
		totalTavg += t.tavg
	}
	res.MeanAccessesToFailure = totalLife / float64(trials)
	res.MeanDirtyBits = totalDirty / float64(trials)
	res.MeanTavgAccesses = totalTavg / float64(trials)
	return res, nil
}

// mcTrial runs one accelerated-rate lifetime on the arena: the rng is
// reseeded in place and the golden copy emptied rather than reallocated,
// while the cache and controller are built fresh (from the pooled
// construction arrays) exactly as the sequential code built them.
func (a *Arena) mcTrial(ctx context.Context, mk protect.Factory, lambda float64, maxAccesses int, seed int64) (mcTrial, error) {
	a.rng.Seed(seed)
	rng := &a.rng
	ccfg := CampaignCacheConfig()
	c := cache.New(ccfg)
	defer c.Release()
	if a.mem == nil {
		a.mem = cache.NewMemory(32, 100)
	} else {
		a.mem.Reset()
	}
	ct := protect.NewController(c, mk(c), a.mem)
	ct.SetSampleInterval(64)
	golden := &a.golden
	golden.reset()

	totalBits := float64(ccfg.TotalBits())
	pFault := lambda * totalBits // expected faults per access (kept << 1)

	var t mcTrial
	t.life = maxAccesses
	var now uint64
	failed := false
	for i := 0; i < maxAccesses && !failed; i++ {
		if i%cancelPollAccesses == 0 {
			if err := ctx.Err(); err != nil {
				return mcTrial{}, err
			}
		}
		now++
		// Fault arrivals.
		for pFault > 0 && rng.Float64() < pFault {
			addr := uint64(rng.Intn(8192/8)) * 8
			if set, way := c.Probe(addr); way >= 0 {
				_, _, word := c.Decompose(addr)
				c.FlipBits(set, way, word, 1<<uint(rng.Intn(64)))
				t.faultsInjected++
			}
			break // at most one per access at these rates
		}
		// Workload.
		addr := uint64(rng.Intn(8192/8)) * 8
		if rng.Intn(2) == 0 {
			v := rng.Uint64()
			golden.store(addr, v)
			ct.Store(addr, v, now)
		} else {
			r := ct.Load(addr, now)
			if want, ok := golden.load(addr); ok && r.Value != want && !ct.Halted {
				t.sdc = true
				t.life = i
				failed = true
			}
		}
		if ct.Halted {
			t.due = true
			t.life = i
			failed = true
		}
	}
	t.censored = !failed
	t.dirtyBits = float64(c.DirtyGranuleCount()) * 64
	t.tavg = c.Tavg()
	return t, nil
}

// AnalyticParityMTTFAccesses is the first-fault model in access units:
// 1 / (lambda * dirtyBits), with AVF = 1 (the campaign counts every
// failure).
func AnalyticParityMTTFAccesses(lambda, dirtyBits float64) float64 {
	return 1 / (lambda * dirtyBits)
}

// AnalyticDoubleFaultMTTFAccesses is the Table 3 double-fault model in
// access units: per interval Tavg, each of `domains` domains fails with
// probability (lambda*Nd*Tavg)^2/2.
func AnalyticDoubleFaultMTTFAccesses(lambda, dirtyBits, tavg float64, domains int) float64 {
	nd := dirtyBits / float64(domains)
	mu := lambda * nd * tavg
	p := float64(domains) * mu * mu / 2
	return tavg / p
}
