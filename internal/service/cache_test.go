package service

import (
	"context"
	"reflect"
	"testing"

	"cppc/internal/cellstore"
	"cppc/internal/energy"
	"cppc/internal/experiments"
)

// cellKinds lists the kinds a planned cell can have.
var cellKinds = []string{KindSimulate, KindMulticore, KindL3, KindMonteCarlo, KindFieldMC}

// codecCells returns one populated result per cell kind, with float
// fields that need every digit to round-trip.
func codecCells() map[string]cellResult {
	run := experiments.Run{Bench: "gzip", Scheme: experiments.CPPC, CPI: 1.0625437891234567}
	run.L1.Misses = 1<<52 + 3
	run.L1Gran.Dirty = 0.12345678901234567
	mc := experiments.MulticoreRun{Bench: "gzip", Cores: 2, SharedFrac: 0.3, CPI: 1.25, Cycles: 1<<40 + 1}
	l3 := experiments.L3Run{Bench: "mcf", ParityCPI: 2.0000000000000004, RBWPerStoreL3: 0.1}
	camp := experiments.MonteCarloCell{Scheme: "cppc", Analytic: 1.5e9}
	camp.Res.Trials, camp.Res.MeanAccessesToFailure = 3, 1234.5678901234567
	field := experiments.FieldMCCell{Scheme: "cppc-2pair",
		Point: experiments.FieldPoint{Footprint: "row", Lifetime: "stuck", Rate: "x4"}}
	field.Counts.Corrected, field.Counts.SDC = 17, 3
	return map[string]cellResult{
		KindSimulate:   {Run: &run},
		KindMulticore:  {Multicore: &mc},
		KindL3:         {L3: &l3},
		KindMonteCarlo: {MC: &camp},
		KindFieldMC:    {FieldMC: &field},
	}
}

// TestCellCodecRoundTrip requires the canonical cell encoding to
// reproduce every kind's typed result exactly — the property the
// byte-identical fleet reports rest on — and decoding to be
// kind-checked: another kind's blob, a torn or foreign blob, or a suite
// (never a cell) must be rejected, not decoded as this kind's cell.
func TestCellCodecRoundTrip(t *testing.T) {
	cells := codecCells()
	for kind, in := range cells {
		data, err := encodeCell(in)
		if err != nil {
			t.Fatalf("%s: encode: %v", kind, err)
		}
		out, err := decodeCell(kind, data)
		if err != nil {
			t.Fatalf("%s: decode: %v", kind, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("%s: round trip lost data:\n got %+v\nwant %+v", kind, out, in)
		}
		for _, other := range append([]string{KindSuite}, cellKinds...) {
			if other == kind {
				continue
			}
			if _, err := decodeCell(other, data); err == nil {
				t.Errorf("%s blob decoded as a %s cell", kind, other)
			}
		}
		for _, bad := range [][]byte{nil, []byte("{}"), []byte("not json"), data[:len(data)/2]} {
			if _, err := decodeCell(kind, bad); err == nil {
				t.Errorf("%s: bad blob %q decoded", kind, bad)
			}
		}
	}
}

// TestForeignKindBlobRecomputed: a stored blob of another kind under a
// cell's hash (a stale disk entry, a bad peer push) must not fail the
// job. It is recomputed like a torn blob, the job finishes, and the
// entry is overwritten with the cell's own result.
func TestForeignKindBlobRecomputed(t *testing.T) {
	store := cellstore.NewMemory(16)
	s := New(Config{Workers: 1, Store: store})
	defer s.Shutdown(context.Background())
	spec := JobSpec{Kind: KindSimulate, Bench: "gzip", Scheme: "cppc", Warmup: 2_000, Measure: 5_000}
	norm, err := spec.normalize()
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := encodeCell(codecCells()[KindMonteCarlo])
	if err != nil {
		t.Fatal(err)
	}
	store.Put(norm.hash(), foreign)

	res, err := s.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("run over a foreign blob: %v", err)
	}
	if res.Values["cpi"] <= 0 {
		t.Errorf("cpi = %v, want a computed value", res.Values["cpi"])
	}
	data, ok := store.Get(norm.hash())
	if !ok {
		t.Fatal("store entry dropped")
	}
	if _, err := decodeCell(KindSimulate, data); err != nil {
		t.Errorf("store entry not overwritten with the simulate result: %v", err)
	}
}

// TestMulticoreCellCodecRoundTrip pins the multicore cell codec on the
// fields the Sec. 7 energy columns aggregate from: the per-level energy
// reports, fold/elision counters and the silent flag must survive the
// disk/wire encoding exactly, or sharded sweeps would drift from
// sequential ones.
func TestMulticoreCellCodecRoundTrip(t *testing.T) {
	run := experiments.MulticoreRun{
		Bench: "gzip", Cores: 2, SharedFrac: 0.3, Silent: true,
		CPI: 1.0625437891234567, Cycles: 123456, Instructions: 30000,
	}
	run.L1.StoreHits = 1<<52 + 3
	run.L2.Misses = 7
	run.Coherence.Invalidations = 11
	run.FoldsL1, run.FoldsL2 = 1<<40+1, 17
	run.ElidedL1, run.ElidedL2 = 99, 3
	run.EnergyL1 = energy.Report{ReadPJ: 0.12345678901234567, WritePJ: 42.5, RBWPJ: 7, FoldPJ: 1e-9}
	run.EnergyL2 = energy.Report{ReadPJ: 2}
	run.EnergyBus = energy.Report{RBWPJ: 3.5}
	in := cellResult{Multicore: &run}

	data, err := encodeCell(in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := decodeCell(KindMulticore, data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Multicore == nil || *out.Multicore != run {
		t.Fatalf("round trip lost data: %+v vs %+v", out.Multicore, run)
	}
}

// FuzzDecodeCell feeds arbitrary bytes to the decoder under every cell
// kind. decodeCell must never panic, and whatever it accepts, aggregate
// must render as a one-cell job of that kind without panicking: the
// kind check is what lets aggregate dereference the payload unchecked.
func FuzzDecodeCell(f *testing.F) {
	cells := codecCells()
	for _, kind := range cellKinds {
		data, err := encodeCell(cells[kind])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"run":null,"mc":{}}`))
	f.Add([]byte(`{"run":{"Scheme":99}}`))
	jobs := map[string]JobSpec{
		KindSimulate:   {Kind: KindSimulate, Bench: "gzip", Scheme: "cppc"},
		KindMulticore:  {Kind: KindMulticore},
		KindL3:         {Kind: KindL3},
		KindMonteCarlo: {Kind: KindMonteCarlo, Scheme: "cppc"},
		KindFieldMC:    {Kind: KindFieldMC, Scheme: "cppc", Footprint: "row", Lifetime: "stuck", Rate: "x4"},
	}
	for kind, spec := range jobs {
		norm, err := spec.normalize()
		if err != nil {
			f.Fatalf("%s: %v", kind, err)
		}
		if len(planCells(norm)) != 1 {
			f.Fatalf("%s job is not a single cell", kind)
		}
		jobs[kind] = norm
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for kind, spec := range jobs {
			res, err := decodeCell(kind, data)
			if err != nil {
				continue
			}
			if out := aggregate(spec, []cellResult{res}); out.Kind != kind {
				t.Fatalf("%s cell rendered as a %q result", kind, out.Kind)
			}
		}
	})
}
