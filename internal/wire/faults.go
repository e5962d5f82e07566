package wire

import (
	"errors"
	"sync/atomic"
	"syscall"
	"time"
)

// Fault injection: a deterministic seam over the package's socket-boundary
// operations, so chaos tests can drive the poller, writer, and listener
// paths through the failure modes a real network produces — connection
// resets, EAGAIN storms, partial writes, short reads, accept-time fd
// exhaustion — without needing a cooperating kernel. The seam sits exactly
// at the syscall boundary: everything above it (queue bookkeeping, buffer
// ownership, edge re-arming, teardown ordering) runs its production code
// under the injected conditions.

// FaultHooks perturbs socket operations process-wide. Each hook is
// consulted immediately before the corresponding syscall; a nil hook (or a
// pass-through return) leaves the operation untouched. Hooks run on the
// goroutine issuing the I/O — the loop's executor in poll mode and for a
// UDP socket's sends, the blocking reader/writer goroutines elsewhere —
// and must not block.
type FaultHooks struct {
	// Read is consulted before each socket read with the buffer size.
	// Return (0, nil) to pass through; (n > 0, nil) to cap the read at n
	// bytes (a short read); (_, err) to inject err in place of the
	// syscall. An injected syscall.EAGAIN behaves like a spurious
	// readiness edge (the read is retried shortly); any other error is
	// terminal for the connection's receive side. On datagram sockets the
	// hook is consulted once per datagram (an installed Read hook turns
	// batched receives into single ones), a cap truncates the datagram —
	// the kernel's behaviour for an undersized receive buffer — and errors
	// are transient, because UDP treats everything short of a closed
	// socket as recoverable.
	Read func(size int) (int, error)
	// Write is the same contract for vectored writes, consulted with the
	// total in-flight bytes. A cap truncates the batch to a prefix (a
	// partial write), EAGAIN stalls the writer exactly like kernel
	// backpressure, and any other error kills the write side.
	Write func(size int) (int, error)
	// Accept is consulted before each kernel accept. A non-nil error is
	// injected in place of the syscall; EMFILE/ENFILE take the
	// fd-exhaustion backoff path, other errors the hard-failure path.
	Accept func() error
}

// faultHooks is the installed seam; nil in production (the common case
// costs one atomic load per syscall).
var faultHooks atomic.Pointer[FaultHooks]

// SetFaultHooks installs process-wide fault injection; nil restores normal
// operation. Test-only: hooks apply to every wire connection in the
// process, and installation synchronizes with in-flight I/O only through
// the atomic swap.
func SetFaultHooks(h *FaultHooks) { faultHooks.Store(h) }

// faultRetryDelay schedules the synthetic retry edge after an injected
// EAGAIN: the real readiness edge was consumed (or never existed), so the
// fault layer must re-arm the path it stalled.
const faultRetryDelay = time.Millisecond

// faultRead consults the read hook. ok is false on pass-through.
func faultRead(size int) (cap int, err error, ok bool) {
	h := faultHooks.Load()
	if h == nil || h.Read == nil {
		return 0, nil, false
	}
	cap, err = h.Read(size)
	return cap, err, err != nil || (cap > 0 && cap < size)
}

// faultReadSpace consults the read hook before a read into p: it returns
// p capped by an injected short read, or the error injected in place of
// the read.
func faultReadSpace(p []byte) ([]byte, error) {
	capN, err, ok := faultRead(len(p))
	if ok && err == nil {
		p = p[:capN]
	}
	return p, err
}

// faultWrite consults the write hook. ok is false on pass-through.
func faultWrite(size int) (cap int, err error, ok bool) {
	h := faultHooks.Load()
	if h == nil || h.Write == nil {
		return 0, nil, false
	}
	cap, err = h.Write(size)
	return cap, err, err != nil || (cap > 0 && cap < size)
}

// faultAccept consults the accept hook; nil means pass through.
func faultAccept() error {
	h := faultHooks.Load()
	if h == nil || h.Accept == nil {
		return nil
	}
	return h.Accept()
}

// faultAgain reports whether an injected error is the spurious-readiness
// kind (retry) rather than a terminal failure.
func faultAgain(err error) bool { return errors.Is(err, syscall.EAGAIN) }
