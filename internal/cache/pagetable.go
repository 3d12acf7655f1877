package cache

import "sync"

// Page geometry of PageTable: 512 entries per page, so a page of memory
// words spans 4KB of address space and a page of directory entries 512
// consecutive blocks.
const (
	pageShift = 9
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1

	slotShift = 6 // log2 of the page-pointer cache's slot count
	pageSlots = 1 << slotShift
)

// PageTable is a sparse array over uint64 indices: the golden memory's
// words, a fault campaign's reference copy, the coherence directory. The
// entries live in fixed pageSize-entry pages found through a map keyed
// by page number, with a small direct-mapped cache of page pointers in
// front, so an access to a recently used page is one multiply, one
// compare and two index reads instead of a hash-map operation per entry.
//
// An entry never written reads as the zero T, and reading never creates
// a page. Pages never move once created, so a pointer returned by Ref
// stays valid until Reset or Release. Reset and Release recycle pages
// rather than freeing them, so a table reused for same-footprint work
// allocates nothing.
//
// Every lookup updates the page-pointer cache, so a table is not safe
// for concurrent use, not even by readers: one goroutine uses a table at
// a time. The zero value is an empty table ready to use.
type PageTable[T any] struct {
	store *pageStore[T] // nil until the first page is created
	slots [pageSlots]pageSlot[T]
}

type page[T any] [pageSize]T

// pageStore is what a table owns beyond its page-pointer cache, and what
// Release hands on to the next table of the same element type.
type pageStore[T any] struct {
	pages map[uint64]*page[T]
	free  []*page[T] // zeroed pages kept for reuse
}

type pageSlot[T any] struct {
	pn uint64
	p  *page[T] // nil: the slot is empty
}

// slotOf picks page pn's page-pointer cache slot. The multiplicative
// hash keeps power-of-two strides apart (the Sec. 7 per-core regions sit
// at 1MB strides, which low page-number bits alone would alias).
func slotOf(pn uint64) uint64 { return pn * 0x9e3779b97f4a7c15 >> (64 - slotShift) }

// find returns page pn, or nil when the table has none.
func (t *PageTable[T]) find(pn uint64) *page[T] {
	s := &t.slots[slotOf(pn)]
	if s.p != nil && s.pn == pn {
		return s.p
	}
	if t.store == nil {
		return nil
	}
	p := t.store.pages[pn]
	if p != nil {
		s.pn, s.p = pn, p
	}
	return p
}

// page returns page pn, creating it if the table has none.
func (t *PageTable[T]) page(pn uint64) *page[T] {
	if p := t.find(pn); p != nil {
		return p
	}
	if t.store == nil {
		t.store = getPageStore[T]()
	}
	st := t.store
	var p *page[T]
	if n := len(st.free); n > 0 {
		p, st.free = st.free[n-1], st.free[:n-1]
	} else {
		p = new(page[T])
	}
	st.pages[pn] = p
	s := &t.slots[slotOf(pn)]
	s.pn, s.p = pn, p
	return p
}

// Get returns entry i, or the zero T if it was never written.
func (t *PageTable[T]) Get(i uint64) T {
	if p := t.find(i >> pageShift); p != nil {
		return p[i&pageMask]
	}
	var zero T
	return zero
}

// Set writes entry i.
func (t *PageTable[T]) Set(i uint64, v T) { t.page(i >> pageShift)[i&pageMask] = v }

// Ref returns a pointer to entry i, creating its page (entries zero) if
// needed.
func (t *PageTable[T]) Ref(i uint64) *T { return &t.page(i >> pageShift)[i&pageMask] }

// Read copies entries i, i+1, ... into dst: one page lookup and one copy
// per page the range touches. It creates no page; absent entries read as
// zero.
func (t *PageTable[T]) Read(i uint64, dst []T) {
	for len(dst) > 0 {
		off := i & pageMask
		n := min(len(dst), pageSize-int(off))
		if p := t.find(i >> pageShift); p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst, i = dst[n:], i+uint64(n)
	}
}

// Write copies src into entries i, i+1, ...: one page lookup and one copy
// per page the range touches.
func (t *PageTable[T]) Write(i uint64, src []T) {
	for len(src) > 0 {
		n := copy(t.page(i >> pageShift)[i&pageMask:], src)
		src, i = src[n:], i+uint64(n)
	}
}

// Reset empties the table in place. Its pages are zeroed and kept for
// reuse, so refilling the same footprint allocates nothing.
func (t *PageTable[T]) Reset() {
	t.slots = [pageSlots]pageSlot[T]{}
	st := t.store
	if st == nil {
		return
	}
	for _, p := range st.pages {
		clear(p[:])
		st.free = append(st.free, p)
	}
	clear(st.pages)
}

// Release empties the table and hands its pages and page index to the
// next table of the same element type that creates a page. The table
// stays usable and starts over empty.
func (t *PageTable[T]) Release() {
	t.Reset()
	if t.store != nil {
		poolOf[T]().Put(t.store)
		t.store = nil
	}
}

// pageStorePools holds one sync.Pool of released page stores per element
// type, keyed by the nil *T: an interface value whose dynamic type alone
// tells the element types apart.
var pageStorePools sync.Map

func poolOf[T any]() *sync.Pool {
	key := any((*T)(nil))
	if p, ok := pageStorePools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := pageStorePools.LoadOrStore(key, new(sync.Pool))
	return p.(*sync.Pool)
}

// getPageStore adopts a released page store, or makes an empty one.
func getPageStore[T any]() *pageStore[T] {
	if st, ok := poolOf[T]().Get().(*pageStore[T]); ok {
		return st
	}
	return &pageStore[T]{pages: make(map[uint64]*page[T])}
}
