package cellstore

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Disk is the persistent tier: one file per cell hash under dir, written
// atomically (temp file + rename) so a crash never leaves a torn entry
// visible. Nothing is preloaded — a restarted daemon warm-starts lazily,
// paying one file read per first Get of a surviving cell. The tier is
// size-bounded: Put evicts the oldest entries (by modification time at
// startup, then write order) until the directory fits maxBytes again.
// One daemon owns a directory at a time; sharing a dir between live
// processes is not supported.
type Disk struct {
	dir      string
	maxBytes int64

	mu     sync.Mutex
	inited bool
	sizes  map[string]int64 // hash -> file size, for GC accounting
	order  []string         // eviction order, oldest first
	bytes  int64
	hits   uint64
	misses uint64
}

// DefaultDiskMaxBytes bounds a disk tier that was not given an explicit
// budget: 1 GiB, thousands of suites' worth of cells.
const DefaultDiskMaxBytes = 1 << 30

// NewDisk builds (and creates, if needed) a disk tier rooted at dir.
// maxBytes <= 0 means DefaultDiskMaxBytes.
func NewDisk(dir string, maxBytes int64) (*Disk, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultDiskMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cellstore: create %s: %w", dir, err)
	}
	return &Disk{dir: dir, maxBytes: maxBytes, sizes: make(map[string]int64)}, nil
}

// Get reads the entry straight off disk; it needs no index, so a
// restarted daemon serves surviving cells before ever scanning the dir.
func (d *Disk) Get(hash string) ([]byte, bool) {
	if !validHash(hash) {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(d.dir, hash))
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		d.misses++
		return nil, false
	}
	d.hits++
	return data, true
}

// Put writes the entry atomically and GCs the tier back under its byte
// budget. Write or rename failures drop the entry silently (the memory
// tier above still has it; the cell can always be recomputed). An entry
// already under hash is replaced, as Store says: the service rewrites a
// hash only when the bytes stored under it failed to decode and it
// recomputed the cell.
func (d *Disk) Put(hash string, data []byte) {
	if !validHash(hash) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ensureIndexLocked()
	tmp, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), filepath.Join(d.dir, hash)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if old, ok := d.sizes[hash]; ok {
		// The rename replaced an older file: the entry is now the
		// newest, as its modification time says after a restart.
		d.bytes -= old
		d.order = slices.DeleteFunc(d.order, func(h string) bool { return h == hash })
	}
	d.sizes[hash] = int64(len(data))
	d.order = append(d.order, hash)
	d.bytes += int64(len(data))
	// Evict oldest-first until we fit again; the entry just written is
	// kept even if it alone exceeds the budget (churning it would make
	// the tier useless for large cells).
	for d.bytes > d.maxBytes && len(d.order) > 1 {
		oldest := d.order[0]
		d.order = d.order[1:]
		os.Remove(filepath.Join(d.dir, oldest))
		d.bytes -= d.sizes[oldest]
		delete(d.sizes, oldest)
	}
}

// ensureIndexLocked scans the directory once, on the first write (or
// stats call), so restarts account for surviving entries without an
// upfront load of their contents. Entries are ordered by modification
// time: the GC continues evicting oldest-first across restarts. Stray
// temp files from a crash are removed.
func (d *Disk) ensureIndexLocked() {
	if d.inited {
		return
	}
	d.inited = true
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	type file struct {
		hash  string
		size  int64
		mtime int64
	}
	var files []file
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, ".tmp-") {
			os.Remove(filepath.Join(d.dir, name))
			continue
		}
		if !validHash(name) || e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, file{hash: name, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime < files[j].mtime })
	for _, f := range files {
		d.sizes[f.hash] = f.size
		d.order = append(d.order, f.hash)
		d.bytes += f.size
	}
}

func (d *Disk) Stats() []Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ensureIndexLocked()
	return []Stats{{Tier: "disk", Hits: d.hits, Misses: d.misses, Entries: len(d.sizes), Bytes: d.bytes}}
}

func (d *Disk) Close() error { return nil }
