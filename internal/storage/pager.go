package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// PageID identifies a page within one file.
type PageID uint32

// Pager reads and writes fixed-size pages in a single file. It is safe
// for concurrent use, and page reads and writes of already-allocated
// pages run without any lock — os.File.ReadAt/WriteAt are pread/pwrite,
// which the kernel handles concurrently — so misses on different buffer
// pool shards overlap their I/O (and any latency a fault rule injects)
// instead of queueing on a pager latch. Only structural operations
// (Allocate, WriteImage's file extension, Close) serialize on the
// mutex. NumPages counts the pages allocated, which may run ahead of the
// file: an allocated page reaches the file at its first Write. Close must not race in-flight I/O; the engine guarantees that
// by holding each table's exclusive lock during teardown.
type Pager struct {
	mu     sync.Mutex // guards f replacement and file extension
	f      *os.File
	npages atomic.Uint32
	reads  atomic.Int64
	writes atomic.Int64
}

// OpenPager opens (creating if needed) the page file at path.
func OpenPager(path string) (*Pager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: opening pager: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat pager: %w", err)
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: file size %d not page aligned", st.Size())
	}
	p := &Pager{f: f}
	p.npages.Store(uint32(st.Size() / PageSize))
	return p, nil
}

// NumPages returns the number of allocated pages.
func (p *Pager) NumPages() PageID {
	return PageID(p.npages.Load())
}

// Allocate reserves the next page id and returns it. It writes nothing:
// the file grows when the page's first image is written back, and until
// then a read of the id returns a fresh page (see ReadRun). install,
// when not nil, runs with the id before NumPages counts the page: the
// pool puts the page's frame in its table there, so nothing bounded by
// NumPages can reach the id before its frame is in place (a fetch in
// that window would load a second frame for the page). If install fails
// the page is not counted and the next Allocate reuses its id.
func (p *Pager) Allocate(install func(PageID) error) (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.f == nil {
		return 0, errors.New("storage: pager closed")
	}
	id := PageID(p.npages.Load())
	if install != nil {
		if err := install(id); err != nil {
			return 0, err
		}
	}
	p.npages.Add(1)
	return id, nil
}

// Read fills dst with the contents of page id. Lock-free: concurrent
// reads (and writes to other pages) proceed in parallel.
func (p *Pager) Read(id PageID, dst *Page) error { return p.ReadRun(id, dst[:]) }

// ReadRun fills dst with the len(dst)/PageSize consecutive pages that
// start at first, in one read call. Each page passes the PagerRead
// failpoint, as a Read of it alone would. A page that Allocate counted
// but the file does not hold yet — past the file's end, or in the hole a
// later page's write-back left — reads as a fresh page.
// Lock-free, like Read.
func (p *Pager) ReadRun(first PageID, dst []byte) error {
	n := len(dst) / PageSize
	if n == 0 || len(dst)%PageSize != 0 {
		return fmt.Errorf("storage: read buffer of %d bytes", len(dst))
	}
	if np := p.npages.Load(); uint64(first)+uint64(n) > uint64(np) {
		return fmt.Errorf("storage: read of unallocated page %d", max(uint32(first), np))
	}
	for i := range n {
		if err := fault.Check(fault.PagerRead); err != nil {
			return fmt.Errorf("storage: reading page %d: %w", first+PageID(i), wrapIO(err))
		}
	}
	got, err := p.f.ReadAt(dst, int64(first)*PageSize)
	if err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("storage: reading page %d: %w", first, wrapIO(err))
	}
	clear(dst[got:])
	for off := 0; off < len(dst); off += PageSize {
		if pg := (*Page)(dst[off : off+PageSize]); pg.freeEnd() == 0 {
			// Never written: every written page's directory ends at or
			// after its header.
			pg.Init()
		}
	}
	p.reads.Add(int64(n))
	return nil
}

// Write persists the page contents to page id. Lock-free, like Read.
func (p *Pager) Write(id PageID, src *Page) error {
	if uint32(id) >= p.npages.Load() {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	// A torn rule lets only a prefix of the page reach the file — the
	// partial flush a crash mid-write leaves behind.
	if n, err := fault.CheckWrite(fault.PagerWrite, PageSize); err != nil {
		if n > 0 {
			p.f.WriteAt(src.Bytes()[:n], int64(id)*PageSize)
		}
		return fmt.Errorf("storage: writing page %d: %w", id, wrapIO(err))
	}
	if _, err := p.f.WriteAt(src.Bytes(), int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: writing page %d: %w", id, wrapIO(err))
	}
	p.writes.Add(1)
	return nil
}

// WriteImage persists a raw page image at id, extending the file with
// fresh pages if id lies beyond the pages counted. WAL recovery uses it
// to reapply logged pages whose first write-back never reached the data
// file.
func (p *Pager) WriteImage(id PageID, image []byte) error {
	if len(image) != PageSize {
		return fmt.Errorf("storage: image of %d bytes", len(image))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.f == nil {
		return errors.New("storage: pager closed")
	}
	for PageID(p.npages.Load()) <= id {
		n := PageID(p.npages.Load())
		if err := fault.Check(fault.PagerWrite); err != nil {
			return fmt.Errorf("storage: extending to page %d: %w", n, wrapIO(err))
		}
		pg := NewPage()
		if _, err := p.f.WriteAt(pg.Bytes(), int64(n)*PageSize); err != nil {
			return fmt.Errorf("storage: extending to page %d: %w", n, wrapIO(err))
		}
		p.npages.Add(1)
		p.writes.Add(1)
	}
	if n, err := fault.CheckWrite(fault.PagerWrite, PageSize); err != nil {
		if n > 0 {
			p.f.WriteAt(image[:n], int64(id)*PageSize)
		}
		return fmt.Errorf("storage: writing image %d: %w", id, wrapIO(err))
	}
	if _, err := p.f.WriteAt(image, int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: writing image %d: %w", id, wrapIO(err))
	}
	p.writes.Add(1)
	return nil
}

// Sync flushes the file to stable storage.
func (p *Pager) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.f == nil {
		return errors.New("storage: pager closed")
	}
	if err := fault.Check(fault.PagerSync); err != nil {
		return fmt.Errorf("storage: sync: %w", wrapIO(err))
	}
	if err := p.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync: %w", wrapIO(err))
	}
	return nil
}

// Stats returns physical read and write counts.
func (p *Pager) Stats() (reads, writes int64) {
	return p.reads.Load(), p.writes.Load()
}

// Close syncs and closes the underlying file.
func (p *Pager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.f == nil {
		return errors.New("storage: pager already closed")
	}
	err := p.f.Sync()
	if cerr := p.f.Close(); err == nil {
		err = cerr
	}
	p.f = nil
	return err
}
