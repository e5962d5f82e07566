// Package utcp hosts the simulator's uTCP machinery (internal/tcp) on
// real infrastructure: wall-clock rt.Loop timers and internal/wire's UDP
// sockets, turning the paper's SO_UNORDERED/SO_UNORDEREDSEND prototype
// into a deployable userspace reliable transport — the KCP shape, but
// with the exact sender/receiver the simulation experiments pin.
//
// The split of responsibilities:
//
//   - codec.go maps tcp.Segment to a 24-byte UDP packet header plus SACK
//     blocks and payload (docs/WIREFORMAT.md "uTCP over UDP"), moving
//     pooled buffers in both directions: encode copies payload once into
//     the outgoing datagram, decode hands the receiver a refcounted
//     slice of the incoming one (the zero-copy fast path in
//     tcp.processData engages because the slice aliases the payload).
//   - Bind attaches a tcp.Conn to any datagram shim (udp.Conn) on any
//     rt.Runtime — the simulator in conformance tests, a wire.UDPConn
//     loop in deployment — so the same state machine is driven by
//     simulated and wall-clock time with zero behavioural divergence.
//   - Dial/Listen bind over real sockets: a connected wire.UDPConn per
//     client, and a demuxing wire.UDPPacketConn listener that routes
//     datagrams by source address to per-peer endpoints. Both stand on
//     wire's one UDP socket core, so the listener's receives and its
//     endpoints' sends batch (recvmmsg/sendmmsg on Linux) like a client's.
//
// Because a userspace ARQ is exactly the kind of code that is subtly
// wrong under loss/reorder/duplication, the package carries its own
// conformance layer: golden-trace tests drive the simulated and
// UDP-carried paths with identical scripted fault schedules and assert
// identical delivery, and a fuzz target feeds the receiver adversarial
// packets asserting no panic, no double-delivery, and a balanced buffer
// ledger.
package utcp
