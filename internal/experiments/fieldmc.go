package experiments

import (
	"context"
	"fmt"

	"cppc/internal/fault"
	"cppc/internal/tables"
)

// The field-mix campaign is a HARP-style profiler: Monte-Carlo campaigns
// over a footprint × lifetime × rate grid (the fault classes the DDR4
// field study reports, see PAPERS.md), classifying per scheme which
// classes end Corrected / DUE / SDC. Unlike the transient-only spatial
// study, persistent faults re-assert through the cache's fault plane on
// every array consult — so the grid is where lifetimes visibly change
// the scheme ranking: a stuck-at bit that parity-1d turns into a DUE
// the moment a store dirties it is corrected by CPPC on every access.
//
// Every cell draws its workload and placements from the same seed, so
// schemes face identical fault sequences (a paired comparison, like the
// Monte-Carlo validation) and cells are byte-identical wherever they
// run — the property the daemon's cell cache and the fleet rely on.

// FieldPoint is one grid point: a fault class and an arrival rate.
type FieldPoint struct {
	Footprint string // word | col | row | bank (fault.ParseFootprint)
	Lifetime  string // transient | intermittent | stuck (fault.ParseLifetime)
	Rate      string // x1 | x4: fault instances per trial window
}

func (p FieldPoint) String() string {
	return p.Footprint + "/" + p.Lifetime + "/" + p.Rate
}

// FieldMCSchemes is the canonical scheme list (column order): the
// paper's four schemes plus the CPPC byte-shift and pair-count
// ablations, whose coverage the footprint classes separate.
func FieldMCSchemes() []string {
	return []string{"parity-1d", "parity-2d", "secded", "cppc", "cppc-noshift", "cppc-2pair"}
}

// FieldMCPoints is the canonical grid (row order): footprint-major,
// then lifetime, then rate.
func FieldMCPoints() []FieldPoint {
	var pts []FieldPoint
	for _, f := range []string{"word", "col", "row", "bank"} {
		for _, l := range []string{"transient", "intermittent", "stuck"} {
			for _, r := range []string{"x1", "x4"} {
				pts = append(pts, FieldPoint{Footprint: f, Lifetime: l, Rate: r})
			}
		}
	}
	return pts
}

// FieldMCCell is one (scheme, grid point) campaign result.
type FieldMCCell struct {
	Scheme string
	Point  FieldPoint
	Counts fault.Counts
}

// fieldModel translates a grid point into the fault model seam's terms.
func fieldModel(pt FieldPoint) (fault.Model, int, error) {
	foot, err := fault.ParseFootprint(pt.Footprint)
	if err != nil {
		return fault.Model{}, 0, err
	}
	life, err := fault.ParseLifetime(pt.Lifetime)
	if err != nil {
		return fault.Model{}, 0, err
	}
	var faults int
	switch pt.Rate {
	case "x1":
		faults = 1
	case "x4":
		faults = 4
	default:
		return fault.Model{}, 0, fmt.Errorf("fieldmc: unknown rate %q", pt.Rate)
	}
	return fault.Model{Foot: foot, Life: life}, faults, nil
}

// FieldMCCellCtx runs one grid cell: `trials` populate → exercise →
// probe lifetimes of the point's fault model under the named scheme.
func FieldMCCellCtx(ctx context.Context, scheme string, pt FieldPoint, trials int, seed int64) (FieldMCCell, error) {
	mk, ok := schemes[scheme]
	if !ok {
		return FieldMCCell{}, fmt.Errorf("fieldmc: unknown scheme %q", scheme)
	}
	m, faults, err := fieldModel(pt)
	if err != nil {
		return FieldMCCell{}, err
	}
	counts, err := fault.RunModelTrialsCtx(ctx, fault.CampaignCacheConfig(), mk, m, faults, trials, seed)
	if err != nil {
		return FieldMCCell{}, err
	}
	return FieldMCCell{Scheme: scheme, Point: pt, Counts: counts}, nil
}

// FieldMCTable renders the field-mix grid from per-cell results, which
// must be in point-major, FieldMCSchemes-minor order (the order the
// shard planner produces).
func FieldMCTable(trials int, cells []FieldMCCell) string {
	schemes := FieldMCSchemes()
	cols := append([]string{"fault class"}, schemes...)
	t := tables.New(
		fmt.Sprintf("field-mix fault campaign: corrected/DUE/SDC of %d trials", trials),
		cols...)
	for i := 0; i < len(cells); i += len(schemes) {
		row := make([]any, 0, len(cols))
		row = append(row, cells[i].Point.String())
		for j, s := range schemes {
			c := cells[i+j]
			if c.Scheme != s {
				row = append(row, "?")
				continue
			}
			row = append(row, fmt.Sprintf("%d/%d/%d", c.Counts.Corrected, c.Counts.DUE, c.Counts.SDC))
		}
		t.Addf(row...)
	}
	return t.String() +
		"footprints: word = single bit, col = full bit column, row = full wordline,\n" +
		"bank = 8x8 region; lifetimes: transient = flip once, intermittent = flicker\n" +
		"(p=0.2/consult), stuck = cell pinned at a level, re-asserted on every array\n" +
		"consult; rate = fault instances per trial window. Persistent faults defeat\n" +
		"one-shot repair: only schemes that correct on every access keep running.\n"
}
