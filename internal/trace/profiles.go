package trace

import "slices"

// profiles holds the 15 synthetic benchmarks standing in for the
// SPEC2000 SimPoints of Sec. 6 (the 12 integer and 3 floating-point
// workloads that appear in Figs. 10-12). The numbers are calibrated so
// cache behaviour lands in each benchmark's published regime: mcf misses
// heavily at both levels (~80% in a 1MB L2, Sec. 6.2); the FP codes
// stream through large arrays; eon and crafty are cache-friendly; dirty
// occupancy and dirty re-access intervals average near Table 2's values.
var profiles = [...]Profile{
	{Name: "gzip", LoadFrac: 0.27, StoreFrac: 0.10, BranchFrac: 0.12, FPFrac: 0, MulFrac: 0.02,
		BranchMispredictRate: 0.06, DepDistance: 8,
		WorkingSetBytes: 640 << 10, HotBytes: 24 << 10, StoreBytes: 576 << 10, DriftPer1000: 15,
		HotFrac: 0.93, SeqFrac: 0.03, StoreRehit: 0.50, LoadRehit: 0.20},
	{Name: "vpr", LoadFrac: 0.33, StoreFrac: 0.12, BranchFrac: 0.11, FPFrac: 0.10, MulFrac: 0.03,
		BranchMispredictRate: 0.08, DepDistance: 7,
		WorkingSetBytes: 640 << 10, HotBytes: 22 << 10, StoreBytes: 640 << 10, DriftPer1000: 16,
		HotFrac: 0.93, SeqFrac: 0.03, StoreRehit: 0.48, LoadRehit: 0.18},
	{Name: "gcc", LoadFrac: 0.31, StoreFrac: 0.12, BranchFrac: 0.15, FPFrac: 0, MulFrac: 0.02,
		BranchMispredictRate: 0.07, DepDistance: 7,
		WorkingSetBytes: 896 << 10, HotBytes: 24 << 10, StoreBytes: 704 << 10, DriftPer1000: 21,
		HotFrac: 0.91, SeqFrac: 0.04, StoreRehit: 0.48, LoadRehit: 0.18},
	{Name: "mcf", LoadFrac: 0.35, StoreFrac: 0.10, BranchFrac: 0.17, FPFrac: 0, MulFrac: 0.01,
		BranchMispredictRate: 0.09, DepDistance: 5,
		WorkingSetBytes: 48 << 20, HotBytes: 16 << 10, StoreBytes: 256 << 10, DriftPer1000: 30,
		HotFrac: 0.55, SeqFrac: 0.02, StoreRehit: 0.30, LoadRehit: 0.08},
	{Name: "crafty", LoadFrac: 0.30, StoreFrac: 0.10, BranchFrac: 0.13, FPFrac: 0, MulFrac: 0.03,
		BranchMispredictRate: 0.07, DepDistance: 8,
		WorkingSetBytes: 448 << 10, HotBytes: 26 << 10, StoreBytes: 512 << 10, DriftPer1000: 12,
		HotFrac: 0.94, SeqFrac: 0.02, StoreRehit: 0.52, LoadRehit: 0.22},
	{Name: "parser", LoadFrac: 0.29, StoreFrac: 0.11, BranchFrac: 0.14, FPFrac: 0, MulFrac: 0.02,
		BranchMispredictRate: 0.08, DepDistance: 7,
		WorkingSetBytes: 640 << 10, HotBytes: 24 << 10, StoreBytes: 576 << 10, DriftPer1000: 16,
		HotFrac: 0.93, SeqFrac: 0.03, StoreRehit: 0.48, LoadRehit: 0.18},
	{Name: "eon", LoadFrac: 0.30, StoreFrac: 0.13, BranchFrac: 0.10, FPFrac: 0.30, MulFrac: 0.06,
		BranchMispredictRate: 0.04, DepDistance: 10,
		WorkingSetBytes: 256 << 10, HotBytes: 26 << 10, StoreBytes: 448 << 10, DriftPer1000: 9,
		HotFrac: 0.94, SeqFrac: 0.02, StoreRehit: 0.52, LoadRehit: 0.25},
	{Name: "perlbmk", LoadFrac: 0.31, StoreFrac: 0.12, BranchFrac: 0.14, FPFrac: 0, MulFrac: 0.02,
		BranchMispredictRate: 0.06, DepDistance: 8,
		WorkingSetBytes: 640 << 10, HotBytes: 24 << 10, StoreBytes: 640 << 10, DriftPer1000: 18,
		HotFrac: 0.92, SeqFrac: 0.03, StoreRehit: 0.50, LoadRehit: 0.20},
	{Name: "gap", LoadFrac: 0.29, StoreFrac: 0.11, BranchFrac: 0.12, FPFrac: 0.05, MulFrac: 0.04,
		BranchMispredictRate: 0.05, DepDistance: 9,
		WorkingSetBytes: 896 << 10, HotBytes: 22 << 10, StoreBytes: 704 << 10, DriftPer1000: 21,
		HotFrac: 0.90, SeqFrac: 0.05, StoreRehit: 0.46, LoadRehit: 0.16},
	{Name: "vortex", LoadFrac: 0.32, StoreFrac: 0.13, BranchFrac: 0.13, FPFrac: 0, MulFrac: 0.02,
		BranchMispredictRate: 0.05, DepDistance: 9,
		WorkingSetBytes: 896 << 10, HotBytes: 22 << 10, StoreBytes: 704 << 10, DriftPer1000: 22,
		HotFrac: 0.91, SeqFrac: 0.03, StoreRehit: 0.46, LoadRehit: 0.16},
	{Name: "bzip2", LoadFrac: 0.28, StoreFrac: 0.10, BranchFrac: 0.12, FPFrac: 0, MulFrac: 0.02,
		BranchMispredictRate: 0.07, DepDistance: 8,
		WorkingSetBytes: 1536 << 10, HotBytes: 22 << 10, StoreBytes: 640 << 10, DriftPer1000: 19,
		HotFrac: 0.89, SeqFrac: 0.06, StoreRehit: 0.46, LoadRehit: 0.15},
	{Name: "twolf", LoadFrac: 0.31, StoreFrac: 0.11, BranchFrac: 0.13, FPFrac: 0.08, MulFrac: 0.03,
		BranchMispredictRate: 0.08, DepDistance: 6,
		WorkingSetBytes: 448 << 10, HotBytes: 24 << 10, StoreBytes: 512 << 10, DriftPer1000: 13,
		HotFrac: 0.93, SeqFrac: 0.02, StoreRehit: 0.50, LoadRehit: 0.20},
	{Name: "swim", LoadFrac: 0.28, StoreFrac: 0.12, BranchFrac: 0.03, FPFrac: 0.80, MulFrac: 0.20,
		BranchMispredictRate: 0.01, DepDistance: 16,
		WorkingSetBytes: 16 << 20, HotBytes: 64 << 10, StoreBytes: 1 << 20, DriftPer1000: 18,
		HotFrac: 0.40, SeqFrac: 0.50, StoreRehit: 0.20, LoadRehit: 0.05},
	{Name: "mgrid", LoadFrac: 0.30, StoreFrac: 0.09, BranchFrac: 0.03, FPFrac: 0.85, MulFrac: 0.25,
		BranchMispredictRate: 0.01, DepDistance: 16,
		WorkingSetBytes: 8 << 20, HotBytes: 64 << 10, StoreBytes: 768 << 10, DriftPer1000: 15,
		HotFrac: 0.45, SeqFrac: 0.45, StoreRehit: 0.20, LoadRehit: 0.05},
	{Name: "applu", LoadFrac: 0.29, StoreFrac: 0.11, BranchFrac: 0.03, FPFrac: 0.80, MulFrac: 0.25,
		BranchMispredictRate: 0.01, DepDistance: 15,
		WorkingSetBytes: 8 << 20, HotBytes: 64 << 10, StoreBytes: 768 << 10, DriftPer1000: 15,
		HotFrac: 0.45, SeqFrac: 0.43, StoreRehit: 0.25, LoadRehit: 0.05},
}

// Profiles returns a copy of the built-in benchmark table, in the order
// the paper's figures list them.
func Profiles() []Profile { return slices.Clone(profiles[:]) }

// ProfileByName looks a profile up; ok is false when the name is unknown.
// It copies only the profile it returns.
func ProfileByName(name string) (Profile, bool) {
	for i := range profiles {
		if profiles[i].Name == name {
			return profiles[i], true
		}
	}
	return Profile{}, false
}
