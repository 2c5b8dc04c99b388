package storage

import "errors"

// ErrIO classifies storage-layer I/O failures — real ones from the
// filesystem and injected ones from the fault registry alike. Callers
// use errors.Is(err, ErrIO) to tell "the disk failed" from "the request
// was wrong" (bad slot, unknown page, closed pager): the shield flips
// into degraded mode on the former and must not on the latter.
var ErrIO = errors.New("storage: I/O failure")

// ioError tags an underlying error as an I/O failure without disturbing
// its message or unwrap chain.
type ioError struct{ err error }

func (e *ioError) Error() string        { return e.err.Error() }
func (e *ioError) Unwrap() error        { return e.err }
func (e *ioError) Is(target error) bool { return target == ErrIO }

// wrapIO marks err as matching ErrIO. Nil stays nil.
func wrapIO(err error) error {
	if err == nil {
		return nil
	}
	return &ioError{err: err}
}

// ErrPoolExhausted reports that a page could not be brought into the
// buffer pool because every frame it could take is pinned. It is a limit
// of the statement, not a failure of the disk — a write set pins every
// page it touches until it commits, so a statement that writes more
// pages than the pool holds cannot run — and never matches ErrIO.
var ErrPoolExhausted = errors.New("storage: buffer pool exhausted")
