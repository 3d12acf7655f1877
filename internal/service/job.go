package service

import "time"

// State is a job's lifecycle phase.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether no further transitions can happen.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Progress counts completed work units (suite cells, campaign schemes).
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Result is what a finished job produced: rendered text artifacts (the
// same tables cmd/repro prints) plus scalar values for machine use.
type Result struct {
	Kind      string             `json:"kind"`
	Artifacts map[string]string  `json:"artifacts,omitempty"`
	Values    map[string]float64 `json:"values,omitempty"`
	ElapsedMs int64              `json:"elapsed_ms"`
}

// Job is one submitted unit of work. All fields are guarded by the
// owning Service's mutex; handlers only ever see copies.
type Job struct {
	ID       string   `json:"id"`
	Hash     string   `json:"hash"`
	Spec     JobSpec  `json:"spec"`
	State    State    `json:"state"`
	Progress Progress `json:"progress"`
	CacheHit bool     `json:"cache_hit"`
	Error    string   `json:"error,omitempty"`

	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`

	// Version increments on every observable change; the streaming
	// endpoint uses it to emit only fresh snapshots.
	Version int `json:"version"`

	result *Result
	seq    int // submission number, the order Jobs lists in

	// hitJSON and resultJSON are a done job's answers to a job-table hit
	// (its snapshot with CacheHit set) and to GET /jobs/{id}/result, as
	// writeJSON writes them. The first request that needs one encodes it,
	// outside the lock, and keeps it (Service.keepAnswer); every later
	// request writes the bytes as they are.
	hitJSON, resultJSON []byte

	// done is closed at the job's terminal transition; Run waits on it.
	done chan struct{}

	// Shard bookkeeping, owned by the Service. plan holds the job's
	// normalized cell specs in aggregation order; cellRes fills in as
	// cells complete (delivered marks which). Snapshots share these
	// slices, but callers never look at unexported fields.
	plan      []JobSpec
	planHash  []string
	cellIdx   map[string]int
	cellRes   []cellResult
	delivered []bool
	remaining int
	unstarted int // planned cells not yet started; >0 counts the job against the queue bound
}
