// Package storage implements the on-disk substrate of the embedded
// relational engine: 4 KiB slotted pages, a file-backed pager, an LRU
// buffer pool, and heap files. The paper ran its implementation on a
// commercial RDBMS; this package stands in for that substrate so the
// overhead experiment (Table 5) exercises a real disk-backed query path.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PageSize is the fixed size of every page.
const PageSize = 4096

// Page header layout (little endian):
//
//	[0:2)  numSlots  — number of slot directory entries (including dead)
//	[2:4)  freeStart — offset where record data ends (grows up)
//	[4:6)  freeEnd   — offset where the slot directory begins (grows down)
//
// Record data grows from headerSize upward; the slot directory grows from
// PageSize downward, 4 bytes per slot: offset uint16, length uint16.
// A slot with length 0 is dead (deleted).
const (
	headerSize = 6
	slotSize   = 4
)

// ErrPageFull is returned when a record cannot fit in the page.
var ErrPageFull = errors.New("storage: page full")

// ErrBadSlot is returned for out-of-range or deleted slots.
var ErrBadSlot = errors.New("storage: bad slot")

// Page is a slotted data page. The zero value is a valid empty page once
// initialized with Init. It is a bare array so a run of pages read in one
// call can be viewed in place: (*Page)(buf[i*PageSize:]) is the run's
// page i.
type Page [PageSize]byte

// NewPage returns an initialized empty page.
func NewPage() *Page {
	p := &Page{}
	p.Init()
	return p
}

// Init resets the page to empty.
func (p *Page) Init() {
	*p = Page{}
	p.setNumSlots(0)
	p.setFreeStart(headerSize)
	p.setFreeEnd(PageSize)
}

// Bytes exposes the raw page for I/O. Callers must treat it as opaque.
func (p *Page) Bytes() []byte { return p[:] }

// LoadBytes replaces the page contents from a raw buffer of PageSize
// bytes.
func (p *Page) LoadBytes(b []byte) error {
	if len(b) != PageSize {
		return fmt.Errorf("storage: LoadBytes got %d bytes, want %d", len(b), PageSize)
	}
	copy(p[:], b)
	return nil
}

func (p *Page) numSlots() int  { return int(binary.LittleEndian.Uint16(p[0:2])) }
func (p *Page) freeStart() int { return int(binary.LittleEndian.Uint16(p[2:4])) }
func (p *Page) freeEnd() int   { return int(binary.LittleEndian.Uint16(p[4:6])) }

func (p *Page) setNumSlots(n int)  { binary.LittleEndian.PutUint16(p[0:2], uint16(n)) }
func (p *Page) setFreeStart(v int) { binary.LittleEndian.PutUint16(p[2:4], uint16(v)) }
func (p *Page) setFreeEnd(v int)   { binary.LittleEndian.PutUint16(p[4:6], uint16(v)) }

func (p *Page) slotPos(slot int) int { return PageSize - (slot+1)*slotSize }

func (p *Page) slot(slot int) (off, length int) {
	pos := p.slotPos(slot)
	return int(binary.LittleEndian.Uint16(p[pos : pos+2])),
		int(binary.LittleEndian.Uint16(p[pos+2 : pos+4]))
}

func (p *Page) setSlot(slot, off, length int) {
	pos := p.slotPos(slot)
	binary.LittleEndian.PutUint16(p[pos:pos+2], uint16(off))
	binary.LittleEndian.PutUint16(p[pos+2:pos+4], uint16(length))
}

// NumSlots returns the slot directory size, including dead slots.
func (p *Page) NumSlots() int { return p.numSlots() }

// FreeSpace returns the bytes available for a new record, accounting for
// the slot entry it would need.
func (p *Page) FreeSpace() int {
	free := p.freeEnd() - p.freeStart() - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// MaxRecordSize is the largest record a fresh page accepts.
const MaxRecordSize = PageSize - headerSize - slotSize

// Insert stores a record and returns its slot number. It compacts the
// page first if fragmentation would otherwise force a false ErrPageFull;
// a page whose records fill their area, as a page filled by appends
// does, is full without that copy.
func (p *Page) Insert(rec []byte) (int, error) {
	if len(rec) == 0 {
		return 0, errors.New("storage: empty record")
	}
	if len(rec) > MaxRecordSize {
		return 0, fmt.Errorf("storage: record of %d bytes exceeds max %d", len(rec), MaxRecordSize)
	}
	// Reuse a dead slot if any (its directory entry is already paid for).
	deadSlot := -1
	for s := 0; s < p.numSlots(); s++ {
		if _, l := p.slot(s); l == 0 {
			deadSlot = s
			break
		}
	}
	need := len(rec)
	if deadSlot < 0 {
		need += slotSize
	}
	if p.freeEnd()-p.freeStart() < need {
		if !p.fragmented() {
			return 0, ErrPageFull
		}
		p.compact()
		if p.freeEnd()-p.freeStart() < need {
			return 0, ErrPageFull
		}
	}
	off := p.freeStart()
	copy(p[off:off+len(rec)], rec)
	p.setFreeStart(off + len(rec))
	if deadSlot >= 0 {
		p.setSlot(deadSlot, off, len(rec))
		return deadSlot, nil
	}
	s := p.numSlots()
	p.setNumSlots(s + 1)
	p.setFreeEnd(p.freeEnd() - slotSize)
	p.setSlot(s, off, len(rec))
	return s, nil
}

// Record returns the record stored in slot. The returned slice aliases
// the page buffer; callers that retain it must copy.
func (p *Page) Record(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.numSlots() {
		return nil, ErrBadSlot
	}
	off, length := p.slot(slot)
	if length == 0 {
		return nil, ErrBadSlot
	}
	return p[off : off+length], nil
}

// Delete marks a slot dead. Space is reclaimed lazily by compaction.
func (p *Page) Delete(slot int) error {
	if slot < 0 || slot >= p.numSlots() {
		return ErrBadSlot
	}
	if _, l := p.slot(slot); l == 0 {
		return ErrBadSlot
	}
	p.setSlot(slot, 0, 0)
	return nil
}

// Update replaces the record in slot. If the new record has the same
// length it is updated in place; if shorter, in place with the slot
// shrunk; if longer, the old copy is abandoned and the record is placed
// in fresh space (compacting if needed). The slot number never changes.
func (p *Page) Update(slot int, rec []byte) error {
	if slot < 0 || slot >= p.numSlots() {
		return ErrBadSlot
	}
	off, length := p.slot(slot)
	if length == 0 {
		return ErrBadSlot
	}
	if len(rec) == 0 {
		return errors.New("storage: empty record")
	}
	if len(rec) <= length {
		copy(p[off:off+len(rec)], rec)
		p.setSlot(slot, off, len(rec))
		return nil
	}
	// Growing: check whether the record can fit once every dead byte —
	// including this record's old copy — is compacted away. The check
	// must precede any mutation so a failed Update leaves the page
	// untouched.
	live := 0
	for s := 0; s < p.numSlots(); s++ {
		if s == slot {
			continue
		}
		if _, l := p.slot(s); l > 0 {
			live += l
		}
	}
	avail := PageSize - headerSize - p.numSlots()*slotSize - live
	if avail < len(rec) {
		return ErrPageFull
	}
	if p.freeEnd()-p.freeStart() < len(rec) {
		// Kill the old copy first so compaction reclaims it.
		p.setSlot(slot, 0, 0)
		p.compact()
	}
	noff := p.freeStart()
	copy(p[noff:noff+len(rec)], rec)
	p.setFreeStart(noff + len(rec))
	p.setSlot(slot, noff, len(rec))
	return nil
}

// compact rewrites live records contiguously from headerSize, updating
// slot offsets. Slot numbers are preserved.
// fragmented reports whether compaction would reclaim any bytes: whether
// the live records' bytes fall short of the record area.
func (p *Page) fragmented() bool {
	live := 0
	for s := 0; s < p.numSlots(); s++ {
		_, l := p.slot(s)
		live += l
	}
	return headerSize+live < p.freeStart()
}

func (p *Page) compact() {
	type live struct {
		slot, off, length int
	}
	var lives []live
	for s := 0; s < p.numSlots(); s++ {
		off, l := p.slot(s)
		if l > 0 {
			lives = append(lives, live{s, off, l})
		}
	}
	// Copy via a scratch buffer: records may overlap their destinations.
	var scratch [PageSize]byte
	w := headerSize
	for i := range lives {
		copy(scratch[w:w+lives[i].length], p[lives[i].off:lives[i].off+lives[i].length])
		lives[i].off = w
		w += lives[i].length
	}
	copy(p[headerSize:w], scratch[headerSize:w])
	for _, lv := range lives {
		p.setSlot(lv.slot, lv.off, lv.length)
	}
	p.setFreeStart(w)
}

// Records calls fn for every live record in slot order until fn returns
// false. The record slice aliases the page buffer.
func (p *Page) Records(fn func(slot int, rec []byte) bool) {
	for s := 0; s < p.numSlots(); s++ {
		off, l := p.slot(s)
		if l == 0 {
			continue
		}
		if !fn(s, p[off:off+l]) {
			return
		}
	}
}
