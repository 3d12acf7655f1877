package trace

import (
	"testing"
	"unsafe"
)

// TestInstrSize pins Instr at 16 bytes, address included. Every simulated
// instruction is copied through a core's 256-entry refill buffer, and a
// read-ahead core's through its 2048-entry ring as well, so every byte
// here grows the refill buffer by 256 bytes and the ring by 2 KiB.
func TestInstrSize(t *testing.T) {
	const refill, ring = 256, 2048
	if got := int(unsafe.Sizeof(Instr{})); got != 16 {
		t.Fatalf("Instr is %d bytes, want 16: the refill buffer would hold %d KiB instead of 4 KiB and the read-ahead ring %d KiB instead of 32 KiB",
			got, refill*got>>10, ring*got>>10)
	}
}

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 15 {
		t.Fatalf("want 15 profiles (the paper's benchmark set), got %d", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.LoadFrac+p.StoreFrac+p.BranchFrac >= 1 {
			t.Errorf("%s: fractions exceed 1", p.Name)
		}
		if p.WorkingSetBytes < p.HotBytes || p.HotBytes <= 0 {
			t.Errorf("%s: bad working-set geometry", p.Name)
		}
		// Generated Dep2 reaches 2·DepDistance back.
		if 2*p.DepDistance > MaxDepDistance {
			t.Errorf("%s: DepDistance %d generates distances past MaxDepDistance %d", p.Name, p.DepDistance, MaxDepDistance)
		}
	}
	for _, name := range []string{"gzip", "mcf", "swim", "applu"} {
		if !seen[name] {
			t.Errorf("missing benchmark %q", name)
		}
	}
}

func TestProfileByName(t *testing.T) {
	if p, ok := ProfileByName("mcf"); !ok || p.Name != "mcf" {
		t.Error("mcf lookup failed")
	}
	if _, ok := ProfileByName("nonesuch"); ok {
		t.Error("unknown name found")
	}
}

// TestProfileByNameAllocFree: the daemon looks a profile up on every
// submit and every simulate cell, so the lookup must not copy the table.
func TestProfileByNameAllocFree(t *testing.T) {
	if avg := testing.AllocsPerRun(100, func() {
		if _, ok := ProfileByName("applu"); !ok {
			t.Fatal("applu missing")
		}
	}); avg != 0 {
		t.Errorf("ProfileByName allocates %.1f objects per call, want 0", avg)
	}
}

// TestProfilesReturnsCopy: callers may modify what Profiles returns
// without changing the built-in table.
func TestProfilesReturnsCopy(t *testing.T) {
	ps := Profiles()
	ps[0].DepDistance = -1
	if p, _ := ProfileByName(ps[0].Name); p.DepDistance == -1 {
		t.Fatal("Profiles shares its backing array with the built-in table")
	}
}

func TestGenDeterminism(t *testing.T) {
	p, _ := ProfileByName("gcc")
	a, b := p.NewGen(7), p.NewGen(7)
	for i := 0; i < 10000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("instruction %d diverged: %+v vs %+v", i, x, y)
		}
	}
	c := p.NewGen(8)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same == 1000 {
		t.Error("different seeds produced identical streams")
	}
}

func TestMixMatchesProfile(t *testing.T) {
	p, _ := ProfileByName("gzip")
	g := p.NewGen(1)
	const n = 200000
	var loads, stores, branches int
	for i := 0; i < n; i++ {
		switch g.Next().Op {
		case OpLoad:
			loads++
		case OpStore:
			stores++
		case OpBranch:
			branches++
		}
	}
	check := func(name string, got int, want float64) {
		t.Helper()
		frac := float64(got) / n
		if frac < want-0.01 || frac > want+0.01 {
			t.Errorf("%s fraction = %.3f, want ~%.3f", name, frac, want)
		}
	}
	check("load", loads, p.LoadFrac)
	check("store", stores, p.StoreFrac)
	check("branch", branches, p.BranchFrac)
}

func TestAddressesWordAlignedAndBounded(t *testing.T) {
	for _, p := range Profiles() {
		g := p.NewGen(3)
		for i := 0; i < 20000; i++ {
			in := g.Next()
			if in.Op != OpLoad && in.Op != OpStore {
				continue
			}
			if in.Addr%8 != 0 {
				t.Fatalf("%s: unaligned address %#x", p.Name, in.Addr)
			}
			// Loads live in the working set; the store-churn region sits
			// directly above it.
			if in.Addr >= uint64(p.WorkingSetBytes+p.StoreBytes) {
				t.Fatalf("%s: address %#x outside footprint", p.Name, in.Addr)
			}
		}
	}
}

func TestStoreRehitProducesRepeats(t *testing.T) {
	p, _ := ProfileByName("eon") // highest rehit bias
	g := p.NewGen(4)
	seen := map[uint64]int{}
	repeats := 0
	stores := 0
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if in.Op != OpStore {
			continue
		}
		stores++
		if seen[in.Addr] > 0 {
			repeats++
		}
		seen[in.Addr]++
	}
	if stores == 0 || float64(repeats)/float64(stores) < 0.3 {
		t.Fatalf("store rehit too low: %d/%d", repeats, stores)
	}
}

func TestOpStrings(t *testing.T) {
	names := map[Op]string{
		OpInt: "int", OpIntMul: "imul", OpFP: "fp", OpFPMul: "fmul",
		OpBranch: "branch", OpLoad: "load", OpStore: "store", Op(99): "?",
	}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("%d.String() = %q", op, op.String())
		}
	}
}

func TestDependenciesWithinWindow(t *testing.T) {
	p, _ := ProfileByName("swim")
	g := p.NewGen(5)
	for i := 0; i < 10000; i++ {
		in := g.Next()
		if in.Dep1 < 0 || int(in.Dep1) > p.DepDistance {
			t.Fatalf("Dep1 = %d out of range", in.Dep1)
		}
		if in.Dep2 < 0 || int(in.Dep2) > 2*p.DepDistance {
			t.Fatalf("Dep2 = %d out of range", in.Dep2)
		}
	}
}
