// Package energy is the analytical cache-energy model standing in for
// CACTI 5.3 (Sec. 6.2). It decomposes a cache access into a fixed part
// (decoder, wordlines, sense amps, tag match, H-tree) and a bitline part
// that scales with the number of bits accessed and the subarray height.
// The ratios that drive Figs. 11 and 12 — check-bit overhead, the 8x
// bitline factor of physically interleaved SECDED, line-wide versus
// word-wide operations, and the growing bitline share in larger caches —
// all fall out of the decomposition.
//
// Absolute values are picojoules at 32nm (Table 1) calibrated against the
// CACTI data points the paper quotes (240 pJ per access for a 32KB 2-way
// cache at 90nm, Sec. 4.8, scaled to 32nm); the figures normalize away
// the absolute scale.
package energy

import (
	"math"

	"cppc/internal/cache"
)

// Technology constants (32nm, nominal voltage).
const (
	// fixedBasePJ is the decoder+wordline+senseamp+tag energy of a 32KB
	// reference cache.
	fixedBasePJ = 47.0
	// fixedSizeExp grows the fixed component with capacity (more banks,
	// longer H-tree); calibrated so the bitline share matches the paper's
	// SECDED overheads at both levels (+42% L1, +68% L2).
	fixedSizeExp = 0.65
	// bitlinePJPerBit256 is the read/write energy of one bitline pair in a
	// 256-row subarray.
	bitlinePJPerBit256 = 0.042
	// writeFactor scales write energy relative to read (full-swing write
	// drivers versus sense-amp reads).
	writeFactor = 1.15
	// xorGatePJ is one 2-input XOR at 32nm, for register folds.
	xorGatePJ = 0.002
	// barrelShiftPJPerWord is the Sec. 4.8 barrel-shifter energy, scaled
	// from the cited 1.5 pJ / 32 bits at 90nm to a 64-bit word at 32nm.
	barrelShiftPJPerWord = 1.1
)

// Model computes per-operation dynamic energies for one protected cache.
type Model struct {
	Cfg cache.Config

	// CheckBits is the stored check bits per dirty granule (read and
	// written alongside the data).
	CheckBits int

	// BitlineFactor multiplies the bitline component: 8 for physically
	// bit-interleaved SECDED (Sec. 6.2), 1 otherwise.
	BitlineFactor float64
}

// New builds a model for a cache with the given check-bit overhead and
// bitline factor.
func New(cfg cache.Config, checkBits int, bitlineFactor float64) *Model {
	if bitlineFactor <= 0 {
		bitlineFactor = 1
	}
	return &Model{Cfg: cfg, CheckBits: checkBits, BitlineFactor: bitlineFactor}
}

// subarrayRows models banking: bigger caches use taller subarrays (longer
// bitlines), which is why the bitline share of access energy grows with
// capacity — the effect behind SECDED's larger relative overhead at L2.
func (m *Model) subarrayRows() float64 {
	sizeKB := float64(m.Cfg.SizeBytes) / 1024
	rows := 256 * math.Sqrt(sizeKB/32)
	return math.Min(math.Max(rows, 128), 1024)
}

// fixed is the size-dependent non-bitline energy per access.
func (m *Model) fixed() float64 {
	sizeKB := float64(m.Cfg.SizeBytes) / 1024
	return fixedBasePJ * math.Pow(sizeKB/32, fixedSizeExp)
}

// perBit is the bitline energy per accessed bit.
func (m *Model) perBit() float64 {
	return bitlinePJPerBit256 * m.subarrayRows() / 256
}

// accessBits is the data+check width of one access of `words` 64-bit
// words.
func (m *Model) accessBits(words int) float64 {
	granules := float64(words) / float64(m.Cfg.DirtyGranuleWords)
	if granules < 1 {
		granules = 1
	}
	return float64(words*64) + granules*float64(m.CheckBits)
}

// Read returns the energy of reading `words` words (plus their check
// bits).
func (m *Model) Read(words int) float64 {
	return m.fixed() + m.accessBits(words)*m.perBit()*m.BitlineFactor
}

// Write returns the energy of writing `words` words.
func (m *Model) Write(words int) float64 {
	return (m.fixed() + m.accessBits(words)*m.perBit()*m.BitlineFactor) * writeFactor
}

// FoldEnergy is the CPPC register-update cost per fold: a barrel shift
// plus a word-wide XOR into R1 or R2 (Secs. 4.8-4.9). granuleWords is the
// register width.
func FoldEnergy(granuleWords int) float64 {
	return float64(granuleWords) * (barrelShiftPJPerWord + 64*xorGatePJ)
}

// AccessTimeNs estimates the array access time, for the Sec. 4.8
// critical-path argument. CACTI 5.3 reports 0.78ns for an 8KB
// direct-mapped cache at 90nm; scaled to 32nm and grown with capacity.
func (m *Model) AccessTimeNs() float64 {
	sizeKB := float64(m.Cfg.SizeBytes) / 1024
	base := 0.78 * 32 / 90 // 8KB at 32nm
	return base * (1 + 0.25*math.Log2(sizeKB/8+1))
}

// BarrelShifterDelayNs is the Sec. 4.8 rotate delay: under 0.4ns for 32
// bits at 90nm; a byte-granular 64-bit rotator at 32nm is faster still
// (3 mux stages instead of 6).
func BarrelShifterDelayNs() float64 { return 0.4 * 32 / 90 * 0.5 * 2 }

// Report is the counted dynamic energy of one run (the Fig. 11/12
// methodology: read hits, write hits and read-before-write operations;
// write-backs are not counted).
type Report struct {
	ReadPJ  float64
	WritePJ float64
	RBWPJ   float64
	FoldPJ  float64
}

// Total sums the components.
func (r Report) Total() float64 { return r.ReadPJ + r.WritePJ + r.RBWPJ + r.FoldPJ }

// Add accumulates another report component-wise (summing the per-L1
// reports of a multiprocessor into one L1-level total).
func (r *Report) Add(o Report) {
	r.ReadPJ += o.ReadPJ
	r.WritePJ += o.WritePJ
	r.RBWPJ += o.RBWPJ
	r.FoldPJ += o.FoldPJ
}

// Ratio is the figure normalization: this report's total over base's
// (e.g. CPPC over parity-1d). Both reports must be counted over the same
// measurement window; NaN when base is empty — an empty base means the
// window counted nothing to normalize against, and +Inf would silently
// survive into averages where NaN visibly poisons them.
func (r Report) Ratio(base Report) float64 {
	if base.Total() == 0 {
		return math.NaN()
	}
	return r.Total() / base.Total()
}

// Count applies the model to a run's cache statistics. accessWords is the
// width of a demand access in words (1 for an L1 fed by a processor,
// block words for an L2 fed by cache traffic); folds is the CPPC register
// update count (0 for other schemes). stats and folds must cover the same
// measurement window — resetting one at a warmup boundary but not the
// other skews every ratio built from the report.
func Count(st cache.Stats, m *Model, accessWords int, folds uint64) Report {
	return CountElided(st, m, accessWords, folds, 0)
}

// CountElided is Count for a cache that elides silent stores: elided is
// the number of store hits whose value equaled the verified dirty one
// (core.Events.SilentStoresElided), and folds counts every fold the
// engine performed, those stores' included. Each elided store keeps its
// read-before-write energy — the old value was still read to detect the
// silence — but pays no array write and skips two folds: the new data
// into R1 and the displaced old data into R2. Pricing the skip is exact
// because the two folds cancel in R1^R2 and the check-bit delta is
// zero, so performing the store left no state an eliding cache would
// not have.
func CountElided(st cache.Stats, m *Model, accessWords int, folds, elided uint64) Report {
	var r Report
	if elided > st.StoreHits {
		elided = st.StoreHits // counters from mismatched windows; don't go negative
	}
	folds -= min(folds, 2*elided) // the two folds each elided store skips
	r.ReadPJ = float64(st.LoadHits) * m.Read(accessWords)
	r.WritePJ = float64(st.StoreHits-elided) * m.Write(accessWords)
	// Read-before-writes: word-wide except the whole-line victim reads
	// two-dimensional parity performs on miss fills.
	wordRBW := st.ReadBeforeWrite - st.RBWOnMissLines
	r.RBWPJ = float64(wordRBW)*m.Read(accessWords) +
		float64(st.RBWOnMissLines)*m.Read(m.Cfg.BlockWords())
	r.FoldPJ = float64(folds) * FoldEnergy(m.Cfg.DirtyGranuleWords)
	return r
}
