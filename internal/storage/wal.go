package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// WAL is a physical page-image write-ahead log. Mutating statements
// append the images of every page they dirtied followed by a commit
// record; recovery replays the images of complete, committed batches in
// order. Torn tails — a crash mid-record or mid-batch — are detected by
// CRC and batch bracketing and discarded.
//
// Record layout (little endian):
//
//	kind   uint8   (1 = page image, 2 = commit)
//	pageID uint32  (page images only)
//	crc    uint32  (over the payload; commit records have none)
//	payload [PageSize]byte (page images only)
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

	// Group commit. With window > 0, concurrent committers enqueue their
	// encoded batches and a leader coalesces everything queued into one
	// buffered write + one fsync. A coalesced group is a concatenation of
	// whole per-committer batches, so the on-disk format — and recovery —
	// is unchanged.
	window  time.Duration // accumulation window; 0 = direct per-commit path
	gmu     sync.Mutex    // guards queue and leading
	queue   []*walCommit
	leading bool

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
	done    chan error
	promote chan struct{}
}

// Record kinds.
const (
	walKindPage   = 1
	walKindCommit = 2
)

const walPageRecordSize = 1 + 4 + 4 + PageSize

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

// encodeBatch validates the images and renders the on-disk batch bytes:
// page records followed by one commit marker.
func encodeBatch(images []PageImage) ([]byte, error) {
	buf := make([]byte, 0, len(images)*walPageRecordSize+1)
	for _, im := range images {
		if len(im.Image) != PageSize {
			return nil, fmt.Errorf("storage: wal image of %d bytes", len(im.Image))
		}
		var hdr [9]byte
		hdr[0] = walKindPage
		binary.LittleEndian.PutUint32(hdr[1:5], uint32(im.ID))
		binary.LittleEndian.PutUint32(hdr[5:9], crc32.Checksum(im.Image, walCRC))
		buf = append(buf, hdr[:]...)
		buf = append(buf, im.Image...)
	}
	buf = append(buf, walKindCommit)
	return buf, nil
}

// AppendBatch logs the images followed by a commit record. The batch is
// atomic for recovery: either all images replay or none do. It returns
// only after the batch is written (and, in synced mode, fsynced) — with
// grouping enabled the write and sync may be shared with other commits
// that arrived in the same window, but durability is per-commit.
func (w *WAL) AppendBatch(images []PageImage) error {
	if len(images) == 0 {
		return nil
	}
	buf, err := encodeBatch(images)
	if err != nil {
		return err
	}
	if w.window <= 0 {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.flushLocked(buf, 1, len(images))
	}
	req := &walCommit{
		buf:     buf,
		records: len(images),
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
// accumulation loop when a burst is already queued.
func (w *WAL) lead(own *walCommit, fresh bool) error {
	if fresh && w.window > 0 {
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
// all — see DESIGN.md §14 for the torn-group caveat).
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
	return w.flushLocked(buf, len(batch), records)
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
	// A torn rule writes only a prefix of the batch and does NOT advance
	// w.size — bytes past the logical end, exactly what a crash mid-append
	// leaves for recovery to discard.
	if n, err := fault.CheckWrite(fault.WALAppend, len(buf)); err != nil {
		if n > 0 {
			w.f.WriteAt(buf[:n], w.size)
		}
		return fmt.Errorf("storage: appending wal batch: %w", wrapIO(err))
	}
	pre := w.size
	if _, err := w.f.WriteAt(buf, w.size); err != nil {
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

// Replay streams every committed batch, in order, to apply. Incomplete
// or corrupt tails are ignored (they are the uncommitted work of a
// crashed process). It returns the number of batches applied.
func (w *WAL) Replay(apply func(PageImage) error) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, errors.New("storage: wal closed")
	}
	if err := fault.Check(fault.WALReplay); err != nil {
		return 0, fmt.Errorf("storage: replaying wal: %w", wrapIO(err))
	}
	var (
		off     int64
		pending []PageImage
		applied int
	)
	hdr := make([]byte, 9)
	img := make([]byte, PageSize)
	for off < w.size {
		if _, err := w.f.ReadAt(hdr[:1], off); err != nil {
			break // torn tail
		}
		switch hdr[0] {
		case walKindCommit:
			off++
			for _, im := range pending {
				if err := apply(im); err != nil {
					return applied, err
				}
			}
			if len(pending) > 0 {
				applied++
			}
			pending = pending[:0]
		case walKindPage:
			if off+walPageRecordSize > w.size {
				return applied, nil // torn tail
			}
			if _, err := w.f.ReadAt(hdr, off); err != nil {
				return applied, nil
			}
			if _, err := w.f.ReadAt(img, off+9); err != nil {
				return applied, nil
			}
			id := PageID(binary.LittleEndian.Uint32(hdr[1:5]))
			want := binary.LittleEndian.Uint32(hdr[5:9])
			if crc32.Checksum(img, walCRC) != want {
				return applied, nil // corrupt tail
			}
			pending = append(pending, PageImage{ID: id, Image: append([]byte(nil), img...)})
			off += walPageRecordSize
		default:
			return applied, nil // garbage tail
		}
	}
	return applied, nil
}

// WALBatches parses a whole log image, one no crash cut short, into its
// commit batches in order: batch i lists the end offset of each of its
// records, the commit marker's last. It reads the layout Replay reads,
// but where Replay takes a torn or corrupt tail for a crash's leftovers,
// WALBatches fails on any byte that is not part of a well-formed record
// of a committed batch.
func WALBatches(log []byte) ([][]int64, error) {
	var batches [][]int64
	var recs []int64
	for off := int64(0); off < int64(len(log)); {
		switch log[off] {
		case walKindCommit:
			off++
			batches = append(batches, append(recs, off))
			recs = nil
		case walKindPage:
			if off+walPageRecordSize > int64(len(log)) {
				return nil, fmt.Errorf("storage: partial wal record at offset %d", off)
			}
			rec := log[off : off+walPageRecordSize]
			if crc32.Checksum(rec[9:], walCRC) != binary.LittleEndian.Uint32(rec[5:9]) {
				return nil, fmt.Errorf("storage: corrupt wal record at offset %d", off)
			}
			off += walPageRecordSize
			recs = append(recs, off)
		default:
			return nil, fmt.Errorf("storage: unknown wal record kind %d at offset %d", log[off], off)
		}
	}
	if len(recs) > 0 {
		return nil, errors.New("storage: wal ends inside an uncommitted batch")
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
