package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// WAL is a physical write-ahead log of the bytes commits change.
// Mutating statements append one record per page they dirtied followed
// by a commit record; recovery rebuilds the pages of complete, committed
// batches in order. Torn tails — a crash mid-record or mid-batch — are
// detected by CRC and batch bracketing and discarded.
//
// A page's first record after OpenWAL or Truncate is its full image, and
// so is the record of a page with no committed version (one a write set
// allocated). Every later record of the page is a patch: the byte runs
// where it differs from its committed version, the version the record
// before it left. A patch that would carry more than half a page is
// written as the image instead. Since every page the log changes has an
// image in it, recovery rewrites each such page whole, and a torn
// data-page write is healed exactly as by a log of images.
//
// Record layout (little endian):
//
//	kind   uint8   (1 = page image, 2 = commit, 3 = patch)
//	pageID uint32  (images and patches)
//	crc    uint32  (over the payload; commit records have none)
//	length uint16  (patches only: the payload's length)
//	payload        (an image: PageSize bytes; a patch: runs of
//	               offset uint16, length uint16, then the bytes)
type WAL struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	size   int64
	synced bool // fsync on every commit
	// poisoned is set when a failed flush could not be rolled back off
	// the file: rejected bytes would otherwise sit below the logical end
	// and turn durable under a later commit's fsync. While set, every
	// append fails; Truncate (the checkpoint) clears it.
	poisoned error
	// leftover is set when a failed write may have left bytes past the
	// logical end. The next flush cuts them off before it writes: a torn
	// group write holds whole member batches, commit markers and all, and
	// a shorter batch written over its start could otherwise leave one of
	// them — a commit its caller was told failed — right behind it.
	leftover bool

	// Group commit. With window > 0, concurrent committers enqueue their
	// encoded batches and a leader coalesces everything queued into one
	// buffered write + one fsync. A coalesced group is a concatenation of
	// whole per-committer batches, so the on-disk format — and recovery —
	// is unchanged.
	window  time.Duration // accumulation window; 0 = direct per-commit path
	gmu     sync.Mutex    // guards queue and leading
	queue   []*walCommit
	leading bool

	// logged marks, by PageID, the pages whose image the log has held
	// since it was last emptied: their next record may be a patch. A mark
	// is set only once its batch is on file. markMu guards it apart from
	// mu, so encoding a batch never waits on another batch's write.
	markMu sync.Mutex
	logged []uint64

	stCommits      atomic.Int64 // committed batches (group members or direct)
	stRecords      atomic.Int64 // page records across committed batches
	stFsyncs       atomic.Int64 // fsyncs issued (synced mode only)
	stWindowWaitNs atomic.Int64 // leader time spent in the accumulation window
}

// walCommit is one committer's encoded batch waiting in the group-commit
// queue. done (cap 1) delivers the group outcome to a follower; promote
// (cap 1) hands leadership to the queue head when the previous leader
// retires with work still queued.
type walCommit struct {
	buf     []byte
	records int
	imaged  []PageID // pages written as images, marked once on file
	done    chan error
	promote chan struct{}
}

// Record kinds.
const (
	walKindPage   = 1
	walKindCommit = 2
	walKindPatch  = 3
)

const (
	walImageHeader    = 1 + 4 + 4          // kind, page id, crc
	walPatchHeader    = walImageHeader + 2 // ... and the payload's length
	walPageRecordSize = walImageHeader + PageSize
	walRunHeader      = 2 + 2 // a run's offset and length
	// walPatchMax is the most payload a patch carries: a page that changed
	// more is logged as its image.
	walPatchMax = PageSize / 2
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// OpenWAL opens (creating if needed) the log at path. When synced is
// true every commit is fsynced — durable but slower; experiments that
// only need atomicity leave it false.
func OpenWAL(path string, synced bool) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: opening wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat wal: %w", err)
	}
	return &WAL{f: f, path: path, size: st.Size(), synced: synced}, nil
}

// PageImage is one page's contents captured for logging.
type PageImage struct {
	ID    PageID
	Image []byte // exactly PageSize bytes
	// Base is the page's committed contents Image was made from (PageSize
	// bytes), or nil when it has none. The log may write a page with a
	// base as a patch against it.
	Base []byte
}

// SetGroupWindow sets the group-commit accumulation window. 0 disables
// grouping (every commit writes and syncs alone). Call it right after
// open, before the log sees concurrent committers; the field is read
// without synchronization on the append path.
func (w *WAL) SetGroupWindow(d time.Duration) { w.window = d }

// GroupStats reports commit-pipeline counters: committed batches, page
// records across them, fsyncs issued, and total leader time spent in the
// accumulation window. fsyncs/commits is the group-commit win: 1.0 when
// every commit syncs alone, well below it once batching kicks in.
func (w *WAL) GroupStats() (commits, records, fsyncs int64, windowWait time.Duration) {
	return w.stCommits.Load(), w.stRecords.Load(), w.stFsyncs.Load(),
		time.Duration(w.stWindowWaitNs.Load())
}

// encodeBatch validates the images and renders the on-disk batch: one
// record per page, then one commit marker. A page goes as a patch against
// its base when the log holds its image and the patch carries at most
// walPatchMax bytes, else as its image. imaged lists the pages written as
// images, to mark once the batch is on file.
func (w *WAL) encodeBatch(images []PageImage) (buf []byte, imaged []PageID, err error) {
	size := 1
	for _, im := range images {
		if len(im.Image) != PageSize || (im.Base != nil && len(im.Base) != PageSize) {
			return nil, nil, fmt.Errorf("storage: wal image of %d bytes, base of %d", len(im.Image), len(im.Base))
		}
		if im.Base != nil {
			size += walPatchHeader + 128 // most patches carry one small row
		} else {
			size += walPageRecordSize
		}
	}
	buf = make([]byte, 0, size)
	for _, im := range images {
		if im.Base != nil && w.isLogged(im.ID) {
			at := len(buf)
			buf = append(buf, walKindPatch, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
			var fits bool
			if buf, fits = appendRuns(buf, im.Base, im.Image, walPatchMax); fits {
				body := buf[at+walPatchHeader:]
				binary.LittleEndian.PutUint32(buf[at+1:], uint32(im.ID))
				binary.LittleEndian.PutUint32(buf[at+5:], crc32.Checksum(body, walCRC))
				binary.LittleEndian.PutUint16(buf[at+9:], uint16(len(body)))
				continue
			}
			buf = buf[:at]
		}
		var hdr [walImageHeader]byte
		hdr[0] = walKindPage
		binary.LittleEndian.PutUint32(hdr[1:5], uint32(im.ID))
		binary.LittleEndian.PutUint32(hdr[5:9], crc32.Checksum(im.Image, walCRC))
		buf = append(buf, hdr[:]...)
		buf = append(buf, im.Image...)
		imaged = append(imaged, im.ID)
	}
	return append(buf, walKindCommit), imaged, nil
}

// appendRuns appends to dst the runs where page differs from base, each
// as its offset, its length and page's bytes, and reports false (with dst
// grown past it) once the runs pass limit bytes. Equal stretches are
// skipped 512 and 64 bytes at a time, and a run is a maximal stretch of
// differing 8-byte words with its equal end bytes trimmed: a gap of a
// whole equal word costs more to carry than a run header.
func appendRuns(dst, base, page []byte, limit int) ([]byte, bool) {
	start := len(dst)
	for i := 0; i < PageSize; {
		switch {
		case i%512 == 0 && bytes.Equal(base[i:i+512], page[i:i+512]):
			i += 512
			continue
		case i%64 == 0 && bytes.Equal(base[i:i+64], page[i:i+64]):
			i += 64
			continue
		case !wordDiffers(base, page, i):
			i += 8
			continue
		}
		end := i + 8
		for end < PageSize && wordDiffers(base, page, end) {
			end += 8
		}
		lo, hi := i, end
		for base[lo] == page[lo] {
			lo++
		}
		for base[hi-1] == page[hi-1] {
			hi--
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(lo))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(hi-lo))
		dst = append(dst, page[lo:hi]...)
		if len(dst)-start > limit {
			return dst, false
		}
		i = end
	}
	return dst, true
}

func wordDiffers(a, b []byte, i int) bool {
	return binary.LittleEndian.Uint64(a[i:]) != binary.LittleEndian.Uint64(b[i:])
}

// applyRuns writes a patch's runs into page.
func applyRuns(page, runs []byte) error {
	for len(runs) > 0 {
		if len(runs) < walRunHeader {
			return errors.New("run header cut short")
		}
		off := int(binary.LittleEndian.Uint16(runs))
		n := int(binary.LittleEndian.Uint16(runs[2:]))
		runs = runs[walRunHeader:]
		if n == 0 || n > len(runs) || off+n > PageSize {
			return fmt.Errorf("run of %d bytes at page offset %d", n, off)
		}
		copy(page[off:], runs[:n])
		runs = runs[n:]
	}
	return nil
}

// isLogged reports whether the log holds the page's image.
func (w *WAL) isLogged(id PageID) bool {
	w.markMu.Lock()
	defer w.markMu.Unlock()
	i := int(id / 64)
	return i < len(w.logged) && w.logged[i]&(1<<(id%64)) != 0
}

// mark records that the log now holds the pages' images.
func (w *WAL) mark(ids []PageID) {
	if len(ids) == 0 {
		return
	}
	w.markMu.Lock()
	for _, id := range ids {
		i := int(id / 64)
		for i >= len(w.logged) {
			w.logged = append(w.logged, 0)
		}
		w.logged[i] |= 1 << (id % 64)
	}
	w.markMu.Unlock()
}

// AppendBatch logs the images followed by a commit record. The batch is
// atomic for recovery: either all of it replays or none does. It returns
// only after the batch is written (and, in synced mode, fsynced) — with
// grouping enabled the write and sync may be shared with other commits
// that arrived in the same window, but durability is per-commit. The
// caller must not change an image or its base until it returns, and must
// not append two batches of one page at once: the second's base is the
// first's image.
func (w *WAL) AppendBatch(images []PageImage) error {
	if len(images) == 0 {
		return nil
	}
	buf, imaged, err := w.encodeBatch(images)
	if err != nil {
		return err
	}
	if w.window <= 0 {
		w.mu.Lock()
		defer w.mu.Unlock()
		if err := w.flushLocked(buf, 1, len(images)); err != nil {
			return err
		}
		w.mark(imaged)
		return nil
	}
	req := &walCommit{
		buf:     buf,
		records: len(images),
		imaged:  imaged,
		done:    make(chan error, 1),
		promote: make(chan struct{}, 1),
	}
	w.gmu.Lock()
	w.queue = append(w.queue, req)
	fresh := !w.leading
	if fresh {
		w.leading = true
	}
	w.gmu.Unlock()
	if fresh {
		return w.lead(req, true)
	}
	select {
	case err := <-req.done:
		return err
	case <-req.promote:
		return w.lead(req, false)
	}
}

// lead runs one committer as the group leader: optionally waits the
// accumulation window, drains the queue, flushes the coalesced group,
// delivers the outcome to every follower, and hands leadership to the
// next queued committer (if any).
//
// A fresh leader that finds itself alone skips the window entirely, so
// sequential workloads pay nothing for grouping; batching comes from
// commits that pile up behind an in-flight flush and from the
// accumulation loop when a burst is already queued. An unsynced log has
// no fsync to share, so its leaders never wait or yield: commits still
// coalesce behind an in-flight write.
func (w *WAL) lead(own *walCommit, fresh bool) error {
	if fresh && w.window > 0 && w.synced {
		qlen := func() int {
			w.gmu.Lock()
			n := len(w.queue)
			w.gmu.Unlock()
			return n
		}
		if qlen() <= 1 {
			// A burst's sibling committers may be runnable but not yet
			// scheduled (few-core hosts); yield once so they can enqueue
			// before the solo decision. A truly lone committer loses only
			// the yield and still skips the window.
			runtime.Gosched()
		}
		if last := qlen(); last > 1 {
			// Accumulate by yielding rather than sleeping: time.Sleep at
			// microsecond scale overshoots badly on coarse-timer hosts,
			// turning the window into milliseconds of added latency. Stop
			// as soon as arrivals quiesce (queue stable across a few
			// yields); the window only caps a pathological wait.
			start := time.Now()
			deadline := start.Add(w.window)
			for stable := 0; stable < 3 && time.Now().Before(deadline); {
				runtime.Gosched()
				if n := qlen(); n == last {
					stable++
				} else {
					stable, last = 0, n
				}
			}
			w.stWindowWaitNs.Add(time.Since(start).Nanoseconds())
		}
	}
	w.gmu.Lock()
	batch := w.queue
	w.queue = nil
	w.gmu.Unlock()

	err := w.flushGroup(batch)
	for _, m := range batch {
		if m != own {
			m.done <- err
		}
	}
	w.gmu.Lock()
	if len(w.queue) > 0 {
		w.queue[0].promote <- struct{}{}
	} else {
		w.leading = false
	}
	w.gmu.Unlock()
	return err
}

// flushGroup writes the concatenation of the members' batches and syncs
// once. All members share the outcome: a torn or failed write fails the
// whole group (none of it is past the logical end, so recovery drops it
// all; the next flush cuts the failed bytes off first).
func (w *WAL) flushGroup(batch []*walCommit) error {
	total, records := 0, 0
	for _, m := range batch {
		total += len(m.buf)
		records += m.records
	}
	var buf []byte
	if len(batch) == 1 {
		buf = batch[0].buf
	} else {
		buf = make([]byte, 0, total)
		for _, m := range batch {
			buf = append(buf, m.buf...)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.flushLocked(buf, len(batch), records); err != nil {
		return err
	}
	for _, m := range batch {
		w.mark(m.imaged)
	}
	return nil
}

// flushLocked performs the write/sync of an encoded run of commits under
// w.mu and maintains the pipeline counters. Callers hold w.mu.
func (w *WAL) flushLocked(buf []byte, commits, records int) error {
	if w.f == nil {
		return errors.New("storage: wal closed")
	}
	if w.poisoned != nil {
		return fmt.Errorf("storage: wal poisoned by earlier flush failure: %w", wrapIO(w.poisoned))
	}
	if w.leftover {
		if err := w.f.Truncate(w.size); err != nil {
			return fmt.Errorf("storage: cutting a failed append off the wal: %w", wrapIO(err))
		}
		w.leftover = false
	}
	// A torn rule writes only a prefix of the batch and does NOT advance
	// w.size — bytes past the logical end, exactly what a crash mid-append
	// leaves for recovery to discard.
	if n, err := fault.CheckWrite(fault.WALAppend, len(buf)); err != nil {
		if n > 0 {
			w.f.WriteAt(buf[:n], w.size)
			w.leftover = true
		}
		return fmt.Errorf("storage: appending wal batch: %w", wrapIO(err))
	}
	pre := w.size
	if _, err := w.f.WriteAt(buf, w.size); err != nil {
		w.leftover = true
		return fmt.Errorf("storage: appending wal batch: %w", wrapIO(err))
	}
	w.size += int64(len(buf))
	if w.window > 0 {
		// Leader crash between the group write and its sync.
		if err := fault.Check(fault.WALGroupFlush); err != nil {
			w.rollbackLocked(pre)
			return fmt.Errorf("storage: group-commit flush: %w", wrapIO(err))
		}
	}
	if w.synced {
		if err := w.f.Sync(); err != nil {
			w.rollbackLocked(pre)
			return fmt.Errorf("storage: syncing wal: %w", wrapIO(err))
		}
		w.stFsyncs.Add(1)
	}
	w.stCommits.Add(int64(commits))
	w.stRecords.Add(int64(records))
	return nil
}

// rollbackLocked undoes a flush whose batch reached the file but failed
// before its durability point: every member of the batch was told its
// commit failed, so the bytes must not remain below the logical end
// where the next successful commit's fsync would silently make them a
// durable committed prefix — a rejected statement resurrecting after a
// crash. The size reverts and the file is truncated back; if even the
// truncate fails the WAL is poisoned (appends fail until the checkpoint
// truncation) so the rejected bytes can never ride a later fsync.
// Callers hold w.mu.
func (w *WAL) rollbackLocked(pre int64) {
	w.size = pre
	if err := w.f.Truncate(pre); err != nil {
		w.poisoned = fmt.Errorf("unrolled rejected batch at offset %d: %w", pre, err)
	}
}

// Replay rebuilds every page the log's committed batches change and
// hands each to apply once, whole, in ascending PageID order: a patched
// page is its last image with the patches after it applied. Incomplete
// or corrupt tails are ignored (they are the uncommitted work of a
// crashed process), but a committed patch of a page with no image before
// it is an error. The log is read in one sequential pass, and what it
// holds at once is the pages it changes plus one batch. It returns the
// number of batches applied.
func (w *WAL) Replay(apply func(PageImage) error) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, errors.New("storage: wal closed")
	}
	if err := fault.Check(fault.WALReplay); err != nil {
		return 0, fmt.Errorf("storage: replaying wal: %w", wrapIO(err))
	}
	pages, applied, err := readLog(bufio.NewReaderSize(io.NewSectionReader(w.f, 0, w.size), 64<<10), false, nil)
	if err != nil {
		return 0, err
	}
	ids := make([]PageID, 0, len(pages))
	for id := range pages {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if err := apply(PageImage{ID: id, Image: pages[id]}); err != nil {
			return 0, err
		}
	}
	return applied, nil
}

// walPending is a record of a batch whose commit marker is not read yet:
// its body is arena[from:to].
type walPending struct {
	kind     byte
	id       PageID
	off      int64
	from, to int
}

// readLog reads a log front to back and returns the pages its committed
// batches leave and how many non-empty batches committed. A batch's
// records wait until its commit marker, where its images replace their
// pages and its patches apply to them; a patch with no image of its page
// before it is an error then. A record cut short, a bad CRC or an
// unknown kind ends the log — a crash's torn tail, its batch unapplied —
// unless strict, when it is an error, as is a log that ends inside a
// batch. batch, when set, receives each batch's record ends, its commit
// marker's last.
func readLog(r *bufio.Reader, strict bool, batch func(ends []int64)) (map[PageID][]byte, int, error) {
	var (
		pages   = make(map[PageID][]byte)
		pending []walPending
		ends    []int64
		arena   []byte
		off     int64
		applied int
		hdr     [walPatchHeader]byte
	)
	torn := func(format string, args ...any) (map[PageID][]byte, int, error) {
		if strict {
			return nil, 0, fmt.Errorf("storage: "+format, args...)
		}
		return pages, applied, nil
	}
	for {
		kind, err := r.ReadByte()
		if err != nil {
			if len(pending) > 0 {
				return torn("wal ends inside an uncommitted batch")
			}
			return pages, applied, nil
		}
		hdr[0] = kind
		switch kind {
		case walKindCommit:
			off++
			for _, p := range pending {
				body := arena[p.from:p.to]
				page := pages[p.id]
				if p.kind == walKindPage {
					if page == nil {
						page = make([]byte, PageSize)
						pages[p.id] = page
					}
					copy(page, body)
					continue
				}
				if page == nil {
					return nil, 0, fmt.Errorf("storage: wal patch of page %d at offset %d has no image of the page before it", p.id, p.off)
				}
				if err := applyRuns(page, body); err != nil {
					return nil, 0, fmt.Errorf("storage: wal patch of page %d at offset %d: %w", p.id, p.off, err)
				}
			}
			if len(pending) > 0 {
				applied++
			}
			if batch != nil {
				batch(append(ends, off))
			}
			pending, ends, arena = pending[:0], nil, arena[:0]
		case walKindPage, walKindPatch:
			h := walImageHeader
			if kind == walKindPatch {
				h = walPatchHeader
			}
			if _, err := io.ReadFull(r, hdr[1:h]); err != nil {
				return torn("partial wal record at offset %d", off)
			}
			n := PageSize
			if kind == walKindPatch {
				n = int(binary.LittleEndian.Uint16(hdr[9:]))
			}
			from := len(arena)
			arena = append(arena, make([]byte, n)...)
			if _, err := io.ReadFull(r, arena[from:]); err != nil {
				return torn("partial wal record at offset %d", off)
			}
			if crc32.Checksum(arena[from:], walCRC) != binary.LittleEndian.Uint32(hdr[5:]) {
				return torn("corrupt wal record at offset %d", off)
			}
			id := PageID(binary.LittleEndian.Uint32(hdr[1:]))
			pending = append(pending, walPending{kind: kind, id: id, off: off, from: from, to: len(arena)})
			off += int64(h + n)
			ends = append(ends, off)
		default:
			return torn("unknown wal record kind %d at offset %d", kind, off)
		}
	}
}

// WALBatches parses a whole log image, one no crash cut short, into its
// commit batches in order: batch i lists the end offset of each of its
// records, the commit marker's last. It reads the log as Replay does,
// but where Replay takes a torn or corrupt tail for a crash's leftovers,
// WALBatches fails on any byte that is not part of a well-formed record
// of a committed batch.
func WALBatches(log []byte) ([][]int64, error) {
	var batches [][]int64
	_, _, err := readLog(bufio.NewReader(bytes.NewReader(log)), true, func(ends []int64) {
		batches = append(batches, ends)
	})
	if err != nil {
		return nil, err
	}
	return batches, nil
}

// Truncate discards the log, typically after a checkpoint has flushed
// all data pages. An empty log holds no rejected bytes, so a successful
// truncation also clears flush-failure poisoning.
func (w *WAL) Truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("storage: wal closed")
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("storage: truncating wal: %w", err)
	}
	w.size = 0
	w.poisoned = nil
	w.leftover = false
	w.markMu.Lock()
	clear(w.logged)
	w.markMu.Unlock()
	if w.synced {
		return w.f.Sync()
	}
	return nil
}

// Size returns the current log length in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Close closes the log file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("storage: wal already closed")
	}
	err := w.f.Close()
	w.f = nil
	return err
}

var _ io.Closer = (*WAL)(nil)
