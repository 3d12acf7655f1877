package service

import (
	"context"
	"encoding/json"
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
	mcSilent := mc
	mcSilent.Silent, mcSilent.ElidedL1 = true, 3
	l3 := experiments.L3Run{Bench: "mcf", ParityCPI: 2.0000000000000004, RBWPerStoreL3: 0.1}
	camp := experiments.MonteCarloCell{Scheme: "cppc", Analytic: 1.5e9}
	camp.Res.Trials, camp.Res.MeanAccessesToFailure = 3, 1234.5678901234567
	field := experiments.FieldMCCell{Scheme: "cppc-2pair",
		Point: experiments.FieldPoint{Footprint: "row", Lifetime: "stuck", Rate: "x4"}}
	field.Counts.Corrected, field.Counts.SDC = 17, 3
	return map[string]cellResult{
		KindSimulate:   {Run: &run},
		KindMulticore:  {Multicore: &mc, MulticoreSilent: &mcSilent},
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
// fields the Sec. 7 energy columns aggregate from: both pricings' energy
// reports, fold/elision counters and silent flags must survive the
// disk/wire encoding exactly, or sharded sweeps would drift from
// sequential ones.
func TestMulticoreCellCodecRoundTrip(t *testing.T) {
	plain := experiments.MulticoreRun{
		Bench: "gzip", Cores: 2, SharedFrac: 0.3,
		CPI: 1.0625437891234567, Cycles: 123456, Instructions: 30000,
	}
	plain.L1.StoreHits = 1<<52 + 3
	plain.L2.Misses = 7
	plain.Coherence.Invalidations = 11
	plain.FoldsL1, plain.FoldsL2 = 1<<40+1, 17
	plain.EnergyL1 = energy.Report{ReadPJ: 0.12345678901234567, WritePJ: 42.5, RBWPJ: 7, FoldPJ: 1e-9}
	plain.EnergyL2 = energy.Report{ReadPJ: 2}
	plain.EnergyBus = energy.Report{RBWPJ: 3.5}
	silent := plain
	silent.Silent = true
	silent.ElidedL1, silent.ElidedL2 = 99, 3
	silent.EnergyL1.WritePJ, silent.EnergyL1.FoldPJ = 40.00000000000001, 0
	in := cellResult{Multicore: &plain, MulticoreSilent: &silent}

	data, err := encodeCell(in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := decodeCell(KindMulticore, data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Multicore == nil || *out.Multicore != plain || out.MulticoreSilent == nil || *out.MulticoreSilent != silent {
		t.Fatalf("round trip lost data: %+v, %+v vs %+v, %+v", out.Multicore, out.MulticoreSilent, plain, silent)
	}
}

// unpricedMulticoreBlob and skippingSilentBlob are the cell blobs an
// engine that skipped silent stores encoded for the multicore point
// {gzip, 2 cores, shared 0.3, warmup 2000, measure 5000, seed 1}, plain
// and silent. Each carries one pricing under the "multicore" key.
const (
	unpricedMulticoreBlob = `{"multicore":{"Bench":"gzip","Cores":2,"SharedFrac":0.3,"Silent":false,"CPI":23.6844,"Cycles":118422,"Instructions":10000,"L1":{"Loads":2675,"Stores":1015,"LoadHits":1277,"StoreHits":724,"Misses":1689,"Fills":1689,"WriteBack":258,"ReadBeforeWrite":313,"RBWOnMissLines":0,"SubWordRMW":0,"FaultsDetected":0,"FaultsCorrected":0,"CleanRefetches":0,"UnrecoverableDUE":0},"L2":{"Loads":1689,"Stores":258,"LoadHits":475,"StoreHits":258,"Misses":1214,"Fills":1214,"WriteBack":0,"ReadBeforeWrite":109,"RBWOnMissLines":0,"SubWordRMW":0,"FaultsDetected":0,"FaultsCorrected":0,"CleanRefetches":0,"UnrecoverableDUE":0},"Coherence":{"BusReads":1398,"BusReadX":327,"Invalidations":89,"OwnerFlushes":38,"OwnerWritebackInvalidations":66,"BusBusyCycles":8118},"DirtyL1":0.032121930803571425,"FoldsL1":1852,"FoldsL2":367,"ElidedL1":0,"ElidedL2":0,"EnergyL1":{"ReadPJ":63880.648,"WritePJ":41649.9824,"RBWPJ":15657.512,"FoldPJ":2274.2560000000003},"EnergyL2":{"ReadPJ":233459.59073948598,"WritePJ":145826.23278401158,"RBWPJ":53572.832401271524,"FoldPJ":1802.704},"EnergyBus":{"ReadPJ":18453.6,"WritePJ":2068.8,"RBWPJ":1372.8,"FoldPJ":0},"Halted":false}}`
	skippingSilentBlob    = `{"multicore":{"Bench":"gzip","Cores":2,"SharedFrac":0.3,"Silent":true,"CPI":23.6844,"Cycles":118422,"Instructions":10000,"L1":{"Loads":2675,"Stores":1015,"LoadHits":1277,"StoreHits":724,"Misses":1689,"Fills":1689,"WriteBack":258,"ReadBeforeWrite":313,"RBWOnMissLines":0,"SubWordRMW":0,"FaultsDetected":0,"FaultsCorrected":0,"CleanRefetches":0,"UnrecoverableDUE":0},"L2":{"Loads":1689,"Stores":258,"LoadHits":475,"StoreHits":258,"Misses":1214,"Fills":1214,"WriteBack":0,"ReadBeforeWrite":109,"RBWOnMissLines":0,"SubWordRMW":0,"FaultsDetected":0,"FaultsCorrected":0,"CleanRefetches":0,"UnrecoverableDUE":0},"Coherence":{"BusReads":1398,"BusReadX":327,"Invalidations":89,"OwnerFlushes":38,"OwnerWritebackInvalidations":66,"BusBusyCycles":8118},"DirtyL1":0.032121930803571425,"FoldsL1":1696,"FoldsL2":367,"ElidedL1":78,"ElidedL2":0,"EnergyL1":{"ReadPJ":63880.648,"WritePJ":37162.8296,"RBWPJ":15657.512,"FoldPJ":2082.688},"EnergyL2":{"ReadPJ":233459.59073948598,"WritePJ":145826.23278401158,"RBWPJ":53572.832401271524,"FoldPJ":1802.704},"EnergyBus":{"ReadPJ":18453.6,"WritePJ":2068.8,"RBWPJ":1372.8,"FoldPJ":0},"Halted":false}}`
)

// TestUnpricedMulticoreBlobRecomputed: a plain multicore cell keeps its
// hash, so a -data-dir disk tier or an older fleet peer can hand back a
// blob encoded before cells carried their silent pricing. decodeCell
// refuses it, so a silent point recomputes the cell instead of rendering
// zero savings, and answers what the skipping engine's silent run did:
// both pricings reproduce the blobs' answers.
func TestUnpricedMulticoreBlobRecomputed(t *testing.T) {
	if _, err := decodeCell(KindMulticore, []byte(unpricedMulticoreBlob)); err == nil {
		t.Fatal("a multicore blob without its silent pricing decoded")
	}
	spec := JobSpec{Kind: KindMulticore, Cores: 2, SharedFrac: 0.3, Warmup: 2000, Measure: 5000}
	norm, err := spec.normalize()
	if err != nil {
		t.Fatal(err)
	}
	store := cellstore.NewMemory(0)
	store.Put(planCells(norm)[0].hash(), []byte(unpricedMulticoreBlob))
	s := New(Config{Workers: 1, Store: store})
	defer s.Shutdown(context.Background())

	for _, silent := range []bool{true, false} {
		blob := unpricedMulticoreBlob
		if silent {
			blob = skippingSilentBlob
		}
		var old cellResult
		if err := json.Unmarshal([]byte(blob), &old); err != nil {
			t.Fatal(err)
		}
		spec.Silent = silent
		got, err := s.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		n, err := spec.normalize()
		if err != nil {
			t.Fatal(err)
		}
		want := aggregate(n, []cellResult{{Multicore: old.Multicore, MulticoreSilent: old.Multicore}})
		if !reflect.DeepEqual(got.Artifacts, want.Artifacts) || !reflect.DeepEqual(got.Values, want.Values) {
			t.Errorf("silent=%v answer differs from the skipping engine's:\n got %+v\nwant %+v", silent, got, want)
		}
	}
	if n := s.Metrics().CellsExecuted; n != 1 {
		t.Errorf("%d cells executed, want 1: the blob recomputes once, then both pricings share it", n)
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
	f.Add([]byte(unpricedMulticoreBlob))
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
