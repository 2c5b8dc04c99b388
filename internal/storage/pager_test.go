package storage

import (
	"path/filepath"
	"testing"
)

func tempPager(t *testing.T) *Pager {
	t.Helper()
	p, err := OpenPager(filepath.Join(t.TempDir(), "data.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestPagerAllocateReadWrite(t *testing.T) {
	p := tempPager(t)
	if p.NumPages() != 0 {
		t.Fatalf("fresh NumPages = %d", p.NumPages())
	}
	id, err := p.Allocate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 || p.NumPages() != 1 {
		t.Fatalf("id=%d NumPages=%d", id, p.NumPages())
	}

	pg := NewPage()
	pg.Insert([]byte("durable"))
	if err := p.Write(id, pg); err != nil {
		t.Fatal(err)
	}
	got := NewPage()
	if err := p.Read(id, got); err != nil {
		t.Fatal(err)
	}
	r, err := got.Record(0)
	if err != nil || string(r) != "durable" {
		t.Fatalf("read back: %q, %v", r, err)
	}
}

func TestPagerBoundsChecks(t *testing.T) {
	p := tempPager(t)
	pg := NewPage()
	if err := p.Read(0, pg); err == nil {
		t.Fatal("read of unallocated page succeeded")
	}
	if err := p.Write(5, pg); err == nil {
		t.Fatal("write of unallocated page succeeded")
	}
}

func TestPagerPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.db")
	p, err := OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := p.Allocate(nil)
	pg := NewPage()
	pg.Insert([]byte("survives"))
	if err := p.Write(id, pg); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := OpenPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.NumPages() != 1 {
		t.Fatalf("reopened NumPages = %d", p2.NumPages())
	}
	got := NewPage()
	if err := p2.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if r, _ := got.Record(0); string(r) != "survives" {
		t.Fatalf("lost data: %q", r)
	}
}

func TestPagerRejectsMisalignedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.db")
	if err := writeFile(path, make([]byte, PageSize+1)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPager(path); err == nil {
		t.Fatal("misaligned file accepted")
	}
}

func TestPagerStats(t *testing.T) {
	p := tempPager(t)
	id, _ := p.Allocate(nil)
	pg := NewPage()
	p.Write(id, pg)
	p.Read(id, pg)
	run := make([]byte, 2*PageSize)
	id2, _ := p.Allocate(nil)
	if err := p.ReadRun(id, run); err != nil || id2 != id+1 {
		t.Fatalf("run of %d, %d: %v", id, id2, err)
	}
	reads, writes := p.Stats()
	if reads != 3 || writes != 1 { // an allocate writes nothing, a run counts its pages
		t.Fatalf("reads=%d writes=%d", reads, writes)
	}
}

func TestPagerDoubleClose(t *testing.T) {
	p, err := OpenPager(filepath.Join(t.TempDir(), "x.db"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err == nil {
		t.Fatal("double close accepted")
	}
}

func TestPagerSync(t *testing.T) {
	p := tempPager(t)
	p.Allocate(nil)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
}

func writeFile(path string, b []byte) error {
	f, err := osCreate(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
