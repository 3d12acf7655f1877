package service

import (
	"encoding/json"
	"fmt"

	"cppc/internal/experiments"
)

// cellResult is one executed cell's typed output. Only the payload of
// the cell spec's kind is set: a multicore cell sets both of its
// pricings, every other kind one field. Cells carry the typed value
// rather than rendered text so overlapping sweeps can re-aggregate it
// into whatever artifact their parent job asked for.
type cellResult struct {
	Run             *experiments.Run            `json:"run,omitempty"`              // simulate
	Multicore       *experiments.MulticoreRun   `json:"multicore,omitempty"`        // multicore point, plain CPPC
	MulticoreSilent *experiments.MulticoreRun   `json:"multicore_silent,omitempty"` // the same run, silent stores elided
	L3              *experiments.L3Run          `json:"l3,omitempty"`               // l3 bench
	MC              *experiments.MonteCarloCell `json:"mc,omitempty"`               // montecarlo scheme
	FieldMC         *experiments.FieldMCCell    `json:"fieldmc,omitempty"`          // fieldmc grid cell
}

// multicoreRun returns a multicore cell's run priced as a job's silent
// field asks.
func (c cellResult) multicoreRun(silent bool) experiments.MulticoreRun {
	if silent {
		return *c.MulticoreSilent
	}
	return *c.Multicore
}

// encodeCell renders a cell result into the canonical bytes every store
// tier carries. JSON round-trips each field exactly (integers verbatim,
// float64s in shortest re-parsable form), so a cell decoded from disk
// aggregates into reports byte-identical to a freshly computed one.
func encodeCell(res cellResult) ([]byte, error) {
	return json.Marshal(res)
}

// decodeCell parses stored bytes back into the typed result of a cell
// of the given kind. A blob lacking that kind's payload is rejected, so
// a torn disk write or another kind's cell can't masquerade as this
// cell — callers fall back to recomputation, and aggregate can rely on
// every cell carrying its kind's payload. A multicore cell encoded
// before it carried its silent pricing lacks half its payload and
// recomputes too.
func decodeCell(kind string, data []byte) (cellResult, error) {
	var res cellResult
	if err := json.Unmarshal(data, &res); err != nil {
		return cellResult{}, fmt.Errorf("cell decode: %w", err)
	}
	var ok bool
	switch kind {
	case KindSimulate:
		ok = res.Run != nil
	case KindMulticore:
		ok = res.Multicore != nil && res.MulticoreSilent != nil
	case KindL3:
		ok = res.L3 != nil
	case KindMonteCarlo:
		ok = res.MC != nil
	case KindFieldMC:
		ok = res.FieldMC != nil
	}
	if !ok {
		return cellResult{}, fmt.Errorf("cell decode: no %s result", kind)
	}
	return res, nil
}
