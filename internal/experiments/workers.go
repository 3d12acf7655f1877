package experiments

import (
	"context"

	"cppc/internal/par"
)

// The intra-cell parallelism hint rides on the context rather than on
// Budget or the cell parameters: it is a wall-clock knob, never part of
// a cell's identity. Cell results (and therefore the content-addressed
// cell cache keys derived from the parameters) are bit-identical
// whatever the hint says — the scheduler sizes it from transient facts
// like idle pool workers.
//
// The key itself lives in internal/par so the fault campaigns (which
// this package drives, and which cannot import it back) read the same
// hint: one worker budget flows from the scheduler or a -parallel flag
// down to both the timed cluster, whose spare workers read each core's
// trace ahead of execution, and the trial executor.

// WithCellWorkers returns a context carrying an intra-cell parallelism
// hint of n goroutines. n < 2 carries nothing (serial).
func WithCellWorkers(ctx context.Context, n int) context.Context {
	return par.WithWorkers(ctx, n)
}

// CellWorkers returns the intra-cell parallelism hint carried by ctx,
// or 1 when the context carries none.
func CellWorkers(ctx context.Context) int {
	return par.Workers(ctx)
}
