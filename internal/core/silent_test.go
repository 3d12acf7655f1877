package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// elidingStore is the store path of a cache that skips silent stores:
// a verified old value of a dirty granule equal to the new one is
// counted and the granule's timestamp refreshed, with no register fold
// and no check-bit update; every other store goes through OnStore. It
// is the reference that the counting engine and energy.CountElided's
// pricing are held to. e must not count silent stores itself.
func elidingStore(e *Engine, set, way, g int, old []uint64, wasDirty, oldVerified bool, now uint64) {
	if oldVerified && wasDirty && silentStore(old, e.GranuleData(e.C.Line(set, way), g)) {
		e.Events.SilentStoresElided++
		e.C.MarkDirty(set, way, g*e.GranuleWords(), now)
		return
	}
	e.OnStore(set, way, g, old, wasDirty, oldVerified, now)
}

// storeVerified is the harness store along the verified-hit path: the
// read-before-write has checked the old data, so OnStore sees
// oldVerified=true — the only path on which a store counts as silent.
func (h *harness) storeVerified(addr, val uint64) {
	h.now++
	set, way := h.ensure(addr)
	_, _, word := h.c.Decompose(addr)
	g := word / h.e.GranuleWords()
	ln := h.c.Line(set, way)
	old := append([]uint64(nil), h.e.GranuleData(ln, g)...)
	wasDirty := ln.Dirty[g]
	ln.Data[word] = val
	if h.eliding {
		elidingStore(h.e, set, way, g, old, wasDirty, true, h.now)
		return
	}
	h.e.OnStore(set, way, g, old, wasDirty, true, h.now)
}

// driveSilentMix sends the same store/load mix through a harness:
// dirtying stores, repeated silent stores of the resident value, and
// overwrites, across several granules.
func driveSilentMix(h *harness) {
	for i := 0; i < 6; i++ {
		a := h.rowAddr(i%4, i%4)
		h.storeVerified(a, uint64(0x1111*(i+1)))
		h.storeVerified(a, uint64(0x1111*(i+1))) // silent: same value, dirty granule
		h.storeVerified(a, uint64(0x1111*(i+1))) // silent again
		h.storeVerified(a, uint64(0x2222*(i+1))) // real overwrite
		h.load(a)
	}
}

// driveRandom sends a seeded random mix of verified stores, loads and
// evictions through a harness. Addresses span twice the cache, so
// conflict misses write back and refill too, and stored values come
// from a small set, so many stores are silent.
func driveRandom(h *harness, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rows, words := 2*h.c.Sets(), h.c.Cfg.BlockWords()
	for i := 0; i < 4000; i++ {
		a := h.rowAddr(rng.Intn(rows), rng.Intn(words))
		switch op := rng.Intn(10); {
		case op < 6:
			h.storeVerified(a, uint64(rng.Intn(3)))
		case op < 9:
			h.load(a)
		default:
			h.evict(a)
		}
	}
}

// sameCPPCState fails the test unless a and b hold the same lines (data,
// dirty bits, check bits), the same memory and the same R1^R2 in every
// register pair.
func sameCPPCState(t *testing.T, a, b *harness) {
	t.Helper()
	for set := 0; set < a.c.Sets(); set++ {
		for way := 0; way < a.c.Ways(); way++ {
			la, lb := a.c.Line(set, way), b.c.Line(set, way)
			if la.Valid != lb.Valid || la.Tag != lb.Tag || !slices.Equal(la.Data, lb.Data) ||
				!slices.Equal(la.Dirty, lb.Dirty) || !slices.Equal(la.Check, lb.Check) {
				t.Fatalf("line (%d,%d) differs:\n%+v\n%+v", set, way, *la, *lb)
			}
		}
	}
	for row := 0; row < 2*a.c.Sets(); row++ {
		for w := 0; w < a.c.Cfg.BlockWords(); w++ {
			addr := a.rowAddr(row, w)
			if a.mem.ReadWord(addr) != b.mem.ReadWord(addr) {
				t.Fatalf("memory word %#x differs", addr)
			}
		}
	}
	for p := 0; p < a.e.Cfg.RegisterPairs; p++ {
		if !slices.Equal(a.e.DirtyXor(p), b.e.DirtyXor(p)) {
			t.Fatalf("pair %d: R1^R2 %#x vs %#x", p, a.e.DirtyXor(p), b.e.DirtyXor(p))
		}
	}
	a.mustInvariant()
	b.mustInvariant()
}

// TestCountingEngineMatchesElidingReference holds a counting engine
// (SilentL1Config, SilentL2Config) to the skipping reference over the
// fixed silent mix and seeded random sequences: data, dirty bits, check
// bits and every pair's R1^R2 agree, both count the same silent stores,
// and the counting engine's folds exceed the reference's by exactly the
// two per counted store that energy.CountElided prices away.
func TestCountingEngineMatchesElidingReference(t *testing.T) {
	levels := []struct {
		name            string
		mk              func(*testing.T, Config) *harness
		plain, counting Config
	}{
		{"L1", newHarness, DefaultL1Config(), SilentL1Config()},
		{"L2", newL2Harness, DefaultL2Config(), SilentL2Config()},
	}
	drives := map[string]func(*harness){
		"mix":      driveSilentMix,
		"random-1": func(h *harness) { driveRandom(h, 1) },
		"random-2": func(h *harness) { driveRandom(h, 2) },
		"random-3": func(h *harness) { driveRandom(h, 3) },
	}
	for _, lv := range levels {
		for name, drive := range drives {
			t.Run(lv.name+"/"+name, func(t *testing.T) {
				ref := lv.mk(t, lv.plain)
				ref.eliding = true
				cnt := lv.mk(t, lv.counting)
				drive(ref)
				drive(cnt)
				sameCPPCState(t, ref, cnt)
				elided := cnt.e.Events.SilentStoresElided
				if elided == 0 {
					t.Fatal("no silent stores counted; the comparison is vacuous")
				}
				if got := ref.e.Events.SilentStoresElided; got != elided {
					t.Errorf("reference elided %d stores, counting engine counted %d", got, elided)
				}
				if got, want := cnt.e.Events.Folds-ref.e.Events.Folds, 2*elided; got != want {
					t.Errorf("extra folds = %d, want 2*elided = %d", got, want)
				}
			})
		}
	}
}

// TestSilentStoreElisionStateIdentical: a counting engine performs every
// silent store, so after an identical access sequence every piece of its
// state — check bits, R1, R2, dirty bits, data — and every event count
// but SilentStoresElided equals the plain engine's, and recovery still
// corrects an injected fault.
func TestSilentStoreElisionStateIdentical(t *testing.T) {
	for name, drive := range map[string]func(*harness){
		"mix":    driveSilentMix,
		"random": func(h *harness) { driveRandom(h, 4) },
	} {
		plain := newHarness(t, DefaultL1Config())
		silent := newHarness(t, SilentL1Config())
		drive(plain)
		drive(silent)
		sameCPPCState(t, plain, silent)
		if plain.e.Events.SilentStoresElided != 0 {
			t.Fatalf("%s: plain engine counted silent stores", name)
		}
		if silent.e.Events.SilentStoresElided == 0 {
			t.Fatalf("%s: no silent stores counted; the mix should contain some", name)
		}
		ev := silent.e.Events
		ev.SilentStoresElided = 0
		if ev != plain.e.Events {
			t.Errorf("%s: events differ beyond the elided count:\n%+v\n%+v", name, plain.e.Events, silent.e.Events)
		}
		if !reflect.DeepEqual(plain.e.r1, silent.e.r1) || !reflect.DeepEqual(plain.e.r2, silent.e.r2) {
			t.Errorf("%s: registers diverged", name)
		}
	}

	plain := newHarness(t, DefaultL1Config())
	silent := newHarness(t, SilentL1Config())
	driveSilentMix(plain)
	driveSilentMix(silent)
	// Detection and correction stay intact: flip a dirty word in both and
	// recover.
	addr := plain.rowAddr(1, 1)
	plain.flip(addr, 1<<9)
	silent.flip(addr, 1<<9)
	repP := plain.recoverAt(addr)
	repS := silent.recoverAt(addr)
	if repP.Outcome != OutcomeCorrected || repS.Outcome != OutcomeCorrected {
		t.Fatalf("recovery outcomes: plain %v silent %v", repP.Outcome, repS.Outcome)
	}
	// rowAddr(1,1) was last overwritten at i=5 (5%4 == 1) with 0x2222*6.
	if v, _ := silent.load(addr); v != 0x2222*6 {
		t.Errorf("silent engine recovered wrong value %#x", v)
	}
}

// TestSilentStoreCleanGranuleNotElided: a store of an identical value to
// a CLEAN granule is not silent — the granule becomes dirty, so its data
// has to enter R1 or the register invariant breaks, and an eliding cache
// must perform it.
func TestSilentStoreCleanGranuleNotElided(t *testing.T) {
	h := newHarness(t, SilentL1Config())
	a := h.rowAddr(0, 0)
	set, way := h.ensure(a)
	// The fetched memory content is zero; "store" zero again onto the
	// clean granule with the old value verified (the RMW path can do
	// this).
	ln := h.c.Line(set, way)
	old := append([]uint64(nil), h.e.GranuleData(ln, 0)...)
	h.e.OnStore(set, way, 0, old, false, true, 1)
	if h.e.Events.SilentStoresElided != 0 {
		t.Fatal("clean-granule store was counted as silent")
	}
	h.mustInvariant()
}
