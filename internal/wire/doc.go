// Package wire runs Minion's framing layers over real kernel sockets.
//
// The deterministic simulator (internal/sim + internal/netem) remains the
// substrate for experiments and protocol tests; wire is the deployable
// counterpart: Conn implements tcp.Stream over a net.Conn TCP socket, so
// the existing uCOBS and uTLS layers — unchanged — produce byte streams on
// real networks that are wire-identical to TCP and TLS (the paper's whole
// deployability argument, §3/§5/§6; with the genuine TLS 1.2 handshake,
// utls.Config.Real, a stock crypto/tls peer on the other end of the
// socket completes the handshake — the interop tests drive exactly that).
// Kernel TCP has no SO_UNORDERED, so wire streams report
// Unordered() == false and the framing layers fall back to their in-order
// receive paths; true unordered delivery stays sim-only until a uTCP
// kernel exists.
//
// Concurrency model: protocol work for a connection executes serially on
// an rt.Loop's executor — its event goroutine, or on an idle loop the
// goroutine handing work in — preserving the simulator's "no locks above
// the kernel" invariant. Every connection runs one datapath, a send queue
// (writer.go) and a receive path (reader.go); only the syscall driver
// under it differs, and it follows from the connection's loop, not from
// an option:
//
//   - Polled (Config.Group on Linux): each group loop owns a readiness
//     poller (epoll) registered edge-triggered on every connection's fd,
//     and the loop's event goroutine parks in it. Reads and writes run
//     non-blocking on the loop's executor itself; a peer that stops
//     reading parks its connection until EPOLLOUT. One goroutine per
//     loop, zero per connection — the shape whose per-connection cost is
//     a map entry and an epoll registration.
//   - Reader/writer pair (everything else): the connection runs a
//     blocking reader goroutine and a blocking writer goroutine. Without
//     a Group it also owns its loop (3 goroutines per connection, maximum
//     isolation — the default); on a group loop without a poller (no
//     poller on the platform, the kernel refused one, or the socket could
//     not be registered) it shares the loop and event work enters it
//     through a per-connection FIFO lane, preserving delivery order.
//
// Under both drivers buffers cross the socket boundary by reference: the
// zero-copy ownership conventions of the datagram datapath hold end to
// end, and the send queue coalesces queued pooled buffers into single
// vectored writes (net.Buffers/writev) instead of one syscall per record.
//
// UDP runs on one socket core under two thin fronts: UDPConn, the
// connected client carrying the internal/udp shim, and UDPPacketConn,
// the listener demux that delivers each datagram with its source address.
// Both ends of a uTCP flow therefore share one I/O path: a reader
// goroutine receiving batches (recvmmsg with a source address per slot
// on Linux amd64/arm64, one ReadFromUDPAddrPort elsewhere) and a
// loop-confined queue of (buffer, destination) pairs flushed once per
// loop turn (sendmmsg on Linux, one send per datagram elsewhere). Fault
// seams, truncation, counters, backoff and Close exist once, around the
// build-tagged primitives.
package wire
