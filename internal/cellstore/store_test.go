package cellstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func h(i int) string { return fmt.Sprintf("%064x", i) }

// TestMemoryEvictionOrder pins the FIFO contract the service relies on:
// the oldest insertion leaves first, and overwriting an existing entry
// neither evicts nor reorders.
func TestMemoryEvictionOrder(t *testing.T) {
	m := NewMemory(3)
	for i := 0; i < 3; i++ {
		m.Put(h(i), []byte{byte(i)})
	}
	m.Put(h(0), []byte{42}) // overwrite: no eviction
	if _, ok := m.Get(h(0)); !ok {
		t.Fatalf("overwrite evicted the entry it replaced")
	}
	m.Put(h(3), nil) // h(0) is still the oldest insertion
	if _, ok := m.Get(h(0)); ok {
		t.Fatalf("oldest entry survived eviction")
	}
	for i := 1; i <= 3; i++ {
		if _, ok := m.Get(h(i)); !ok {
			t.Fatalf("entry %d evicted out of order", i)
		}
	}
	st := m.Stats()[0]
	if st.Entries != 3 {
		t.Fatalf("entries = %d, want 3", st.Entries)
	}
}

// TestMemoryBoundHolds covers the >= eviction rule: even if the store
// somehow ends up over its bound (a future config change shrinking max),
// the next put drains it back under, instead of only ever evicting when
// exactly full.
func TestMemoryBoundHolds(t *testing.T) {
	m := NewMemory(8)
	for i := 0; i < 8; i++ {
		m.Put(h(i), []byte{1})
	}
	m.max = 3 // simulate a shrunk bound
	m.Put(h(100), []byte{1})
	if got := m.Stats()[0].Entries; got > 3 {
		t.Fatalf("store holds %d entries after bound shrank to 3", got)
	}
	if _, ok := m.Get(h(100)); !ok {
		t.Fatalf("newest entry evicted")
	}
}

// TestMemoryConcurrent hammers get/put from many goroutines (run under
// the CI race job) and checks the hit/miss counters stay consistent
// with the number of lookups issued.
func TestMemoryConcurrent(t *testing.T) {
	m := NewMemory(64)
	const workers, ops = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := h((w*ops + i) % 100)
				if i%2 == 0 {
					m.Put(k, []byte{byte(i)})
				} else {
					m.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
	st := m.Stats()[0]
	if st.Hits+st.Misses != workers*ops/2 {
		t.Fatalf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, workers*ops/2)
	}
	if st.Entries > 64 {
		t.Fatalf("bound exceeded: %d entries", st.Entries)
	}
}

// TestDiskPutGetWarmRestart covers the persistence contract: a second
// Disk over the same directory serves entries written by the first,
// lazily, without any preload step.
func TestDiskPutGetWarmRestart(t *testing.T) {
	dir := t.TempDir()
	d1, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("cell result bytes")
	d1.Put(h(1), want)
	if got, ok := d1.Get(h(1)); !ok || !bytes.Equal(got, want) {
		t.Fatalf("get after put = %q, %v", got, ok)
	}

	d2, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := d2.Get(h(1)); !ok || !bytes.Equal(got, want) {
		t.Fatalf("warm restart get = %q, %v", got, ok)
	}
	if st := d2.Stats()[0]; st.Entries != 1 || st.Bytes != int64(len(want)) {
		t.Fatalf("restart index = %+v", st)
	}
	if _, ok := d2.Get(h(2)); ok {
		t.Fatalf("phantom entry")
	}
}

// TestDiskGC bounds the tier: puts beyond maxBytes evict the oldest
// files, on the index carried across a restart too.
func TestDiskGC(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 40)
	for i := 0; i < 4; i++ {
		d.Put(h(i), blob)
	}
	// 4*40 = 160 > 100: the two oldest must be gone.
	for i := 0; i < 2; i++ {
		if _, ok := d.Get(h(i)); ok {
			t.Fatalf("entry %d survived GC", i)
		}
	}
	for i := 2; i < 4; i++ {
		if _, ok := d.Get(h(i)); !ok {
			t.Fatalf("entry %d evicted too early", i)
		}
	}
	if st := d.Stats()[0]; st.Bytes > 100 {
		t.Fatalf("tier over budget: %d bytes", st.Bytes)
	}
	// No stray temp files, and only entry files remain.
	files, _ := os.ReadDir(dir)
	for _, f := range files {
		if !ValidHash(f.Name()) {
			t.Fatalf("stray file %q in store dir", f.Name())
		}
	}
}

// TestDiskRejectsBadHashes keeps client-supplied hashes from touching
// paths: anything but 64 lowercase hex chars is a miss / dropped put.
func TestDiskRejectsBadHashes(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "..", "../escape", "ABCDEF", h(1)[:63], h(1) + "0"} {
		d.Put(bad, []byte("x"))
		if _, ok := d.Get(bad); ok {
			t.Fatalf("bad hash %q accepted", bad)
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("bad hashes left files behind")
	}
	if _, err := os.Stat(filepath.Join(dir, "..", "escape")); err == nil {
		t.Fatalf("path escaped the store dir")
	}
}

// TestTiered covers read-through with backfill and write-through: a disk
// hit lands in the memory tier, and a put reaches both.
func TestTiered(t *testing.T) {
	dir := t.TempDir()
	disk, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory(8)
	ts := NewTiered(mem, disk)

	disk.Put(h(1), []byte("from disk"))
	if got, ok := ts.Get(h(1)); !ok || string(got) != "from disk" {
		t.Fatalf("tiered get = %q, %v", got, ok)
	}
	if _, ok := mem.Get(h(1)); !ok {
		t.Fatalf("disk hit not backfilled into memory")
	}

	ts.Put(h(2), []byte("both"))
	if _, ok := mem.Get(h(2)); !ok {
		t.Fatalf("put missed the memory tier")
	}
	if _, ok := disk.Get(h(2)); !ok {
		t.Fatalf("put missed the disk tier")
	}

	st := ts.Stats()
	if len(st) != 2 || st[0].Tier != "memory" || st[1].Tier != "disk" {
		t.Fatalf("tier stats = %+v", st)
	}
}

// benchCell is a typical encoded cell: 4 KB of JSON-like bytes.
func benchCell() []byte {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte('a' + i%26)
	}
	return data
}

// BenchmarkDiskPut times one disk-tier write of a fresh cell: a temporary
// file, then a rename into place.
func BenchmarkDiskPut(b *testing.B) {
	d, err := NewDisk(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	data := benchCell()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Put(h(i), data)
	}
}

// BenchmarkDiskGet times one disk-tier read over 256 resident cells.
func BenchmarkDiskGet(b *testing.B) {
	d, err := NewDisk(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	data := benchCell()
	const cells = 256
	for i := 0; i < cells; i++ {
		d.Put(h(i), data)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.Get(h(i % cells)); !ok {
			b.Fatal("disk store lost a cell")
		}
	}
}
