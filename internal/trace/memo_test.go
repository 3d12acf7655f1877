package trace

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestMemoGenMatchesGen checks that a memoized reader produces exactly
// the plain generator's stream, across mixed batch sizes and many
// readers of the same stream.
func TestMemoGenMatchesGen(t *testing.T) {
	p, ok := ProfileByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	const n = 3 * memoGrowChunk
	ref := make([]Instr, n)
	p.NewGen(42).NextBatch(ref)

	for reader := 0; reader < 3; reader++ {
		m := p.NewMemoGen(42)
		got := make([]Instr, 0, n)
		buf := make([]Instr, 0)
		// Odd batch sizes exercise partial-chunk extension.
		for _, sz := range []int{1, 7, 256, 1000, memoGrowChunk, n} {
			if len(got)+sz > n {
				sz = n - len(got)
			}
			buf = append(buf[:0], make([]Instr, sz)...)
			if w := m.NextBatch(buf); w != sz {
				t.Fatalf("reader %d: NextBatch wrote %d, want %d", reader, w, sz)
			}
			got = append(got, buf...)
		}
		for len(got) < n {
			got = append(got, m.Next())
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("reader %d: instr %d = %+v, want %+v", reader, i, got[i], ref[i])
			}
		}
	}
}

// TestMemoGenForksPastCap drives a reader across the memoized-prefix
// cap and checks the forked tail continues the exact stream.
func TestMemoGenForksPastCap(t *testing.T) {
	p, ok := ProfileByName("mcf")
	if !ok {
		t.Fatal("mcf profile missing")
	}
	const past = 2500
	ref := make([]Instr, memoMaxInstrs+past)
	p.NewGen(7).NextBatch(ref)

	m := p.NewMemoGen(7)
	got := make([]Instr, len(ref))
	// A batch straddling the cap boundary must split cleanly.
	for pos := 0; pos < len(got); {
		sz := 999
		if pos+sz > len(got) {
			sz = len(got) - pos
		}
		m.NextBatch(got[pos : pos+sz])
		pos += sz
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("instr %d = %+v, want %+v (cap %d)", i, got[i], ref[i], memoMaxInstrs)
		}
	}
}

// TestMemoGenConcurrentReaders extends one stream from many goroutines
// at once, across chunk boundaries and past the prefix cap (where each
// reader forks the parked generator); run under -race this checks the
// snapshot discipline, and the content check that concurrent extension
// and forking stay bit-exact.
func TestMemoGenConcurrentReaders(t *testing.T) {
	p, ok := ProfileByName("swim")
	if !ok {
		t.Fatal("swim profile missing")
	}
	// Start from an empty prefix on every run (-count), so the readers
	// race to extend it rather than copy a prefix an earlier run left.
	memoMu.Lock()
	delete(memoStreams, memoKey{p, 11})
	memoMu.Unlock()
	const n = memoMaxInstrs + 2*memoGrowChunk + 123
	ref := make([]Instr, n)
	p.NewGen(11).NextBatch(ref)

	var wg sync.WaitGroup
	errs := make([]int, 8)
	for r := 0; r < len(errs); r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := p.NewMemoGen(11)
			// Readers advance at different strides, from a fraction of a
			// chunk to more than two chunks per batch.
			got := make([]Instr, 300+1237*r)
			errs[r] = -1
			for pos := 0; pos < n; {
				sz := min(len(got), n-pos)
				m.NextBatch(got[:sz])
				for i := range got[:sz] {
					if got[i] != ref[pos+i] {
						errs[r] = pos + i
						return
					}
				}
				pos += sz
			}
		}()
	}
	wg.Wait()
	for r, e := range errs {
		if e != -1 {
			t.Fatalf("reader %d diverged at instr %d", r, e)
		}
	}
}

// TestMemoPrefixAllocatedOnce checks that a stream's prefix is allocated
// once at its own size, not regrown and copied as it extends, and that
// per-core streams stay out of the memo at every sharing fraction: the
// memo serves single-core readers only.
func TestMemoPrefixAllocatedOnce(t *testing.T) {
	p, ok := ProfileByName("vpr")
	if !ok {
		t.Fatal("vpr profile missing")
	}
	const seed = 2011 // no other test reads these streams
	m := p.NewMemoGen(seed)
	buf := make([]Instr, 1000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for pos := 0; pos < memoMaxInstrs; pos += len(buf) {
		m.NextBatch(buf[:min(len(buf), memoMaxInstrs-pos)])
	}
	runtime.ReadMemStats(&after)
	prefix := float64(memoMaxInstrs) * float64(unsafe.Sizeof(Instr{}))
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > 1.1*prefix {
		t.Errorf("draining a %d-instruction prefix allocated %.0f bytes, want at most 1.1 x %.0f", memoMaxInstrs, got, prefix)
	}

	const cores = 3
	memoMu.Lock()
	clear(memoStreams) // attached readers keep their streams
	memoMu.Unlock()
	for _, frac := range []float64{0, 0.3, 0.6} {
		for _, g := range p.NewCoreGens(cores, frac, seed+1) {
			g.NextBatch(buf)
		}
	}
	memoMu.Lock()
	added := len(memoStreams)
	memoMu.Unlock()
	if added != 0 {
		t.Errorf("three sharing fractions of %d cores added %d memo streams, want none", cores, added)
	}
}
