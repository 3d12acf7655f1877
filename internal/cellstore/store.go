// Package cellstore is the storage seam under the daemon's cell cache:
// a content-addressed byte store keyed by a cell spec's canonical hash.
// The service composes tiers of it — a bounded in-memory tier in front
// of an optional disk tier that survives restarts — so the planner →
// run queue → delivery path never knows where a cell result came from.
//
// Values are opaque bytes (the service's canonical cell encoding); keys
// are 64-char lowercase hex SHA-256 strings. Stores are safe for
// concurrent use.
package cellstore

// Stats describes one tier for /metrics.
type Stats struct {
	Tier    string `json:"tier"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
}

// Store is one cache tier (or a composition of tiers). Get and Put never
// fail loudly: a tier that cannot serve a key reports a miss, a tier
// that cannot persist a value drops it — callers always have the
// authoritative fallback of recomputing the cell.
type Store interface {
	// Get returns the stored bytes for hash, or ok == false.
	Get(hash string) ([]byte, bool)
	// Put stores data under hash. Existing entries are overwritten
	// (results are content-addressed by spec, so rewrites are idempotent).
	Put(hash string, data []byte)
	// Stats returns one entry per concrete tier, outermost first.
	Stats() []Stats
	// Close releases tier resources (no-op for memory).
	Close() error
}

// validHash reports whether h is a well-formed cell hash: exactly 64
// lowercase hex characters. The disk tier uses hashes as file names, so
// anything else is rejected before it can touch a path.
func validHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Tiered composes stores into one read-through, write-through cache.
// Get tries each tier in order and backfills every earlier tier on a
// hit; Put writes through to all tiers.
type Tiered struct {
	tiers []Store
}

// NewTiered composes tiers, fastest first.
func NewTiered(tiers ...Store) *Tiered {
	return &Tiered{tiers: tiers}
}

func (t *Tiered) Get(hash string) ([]byte, bool) {
	for i, tier := range t.tiers {
		if data, ok := tier.Get(hash); ok {
			for j := 0; j < i; j++ {
				t.tiers[j].Put(hash, data)
			}
			return data, true
		}
	}
	return nil, false
}

func (t *Tiered) Put(hash string, data []byte) {
	for _, tier := range t.tiers {
		tier.Put(hash, data)
	}
}

func (t *Tiered) Stats() []Stats {
	var out []Stats
	for _, tier := range t.tiers {
		out = append(out, tier.Stats()...)
	}
	return out
}

func (t *Tiered) Close() error {
	var first error
	for _, tier := range t.tiers {
		if err := tier.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
