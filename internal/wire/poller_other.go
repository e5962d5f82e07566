//go:build !linux

package wire

import (
	"errors"
	"net"
	"time"
)

// Non-Linux platforms have no readiness poller yet (a kqueue counterpart
// would slot in exactly here): newPoller always fails, so Groups run
// without pollers — every connection gets the reader/writer goroutine
// pair — and every poll hook below is inert, keeping the package portable
// without build-tagging the core connection code.

var errNoPoller = errors.New("wire: readiness poller not supported on this platform")

type poller struct{}

func newPoller() (*poller, bool) { return nil, false }

// Park and Wake satisfy rt.Parker for the group's SetParker call, which
// never runs here (newPoller never returns a poller).
func (p *poller) Park(d time.Duration) {}

func (p *poller) Wake() {}

func (p *poller) register(fd int, t pollTarget) (int32, bool) { return 0, false }

func (p *poller) registerRead(fd int, t pollTarget) (int32, bool) { return 0, false }

func (p *poller) unregister(tok int32, fd int) {}

func (p *poller) registrations() int { return 0 }

func (p *poller) close() {}

func rawFD(nc net.Conn) (int, bool) { return 0, false }

// pollIO is the per-connection platform scratch (nothing portable).
type pollIO struct{}

func (c *Conn) pollReadFd(p []byte) (int, bool, error) { return 0, false, errNoPoller }

func (c *Conn) pollWritev(v net.Buffers) (int, bool, error) { return 0, false, errNoPoller }
