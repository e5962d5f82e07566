// Package rt defines the runtime abstraction that decouples Minion's
// protocol state machines from the engine that drives them.
//
// Every layer that needs time — TCP retransmission timers, netem link
// service, VoIP playout deadlines — programs against Runtime instead of a
// concrete clock. Two engines implement it:
//
//   - sim.Simulator: the deterministic discrete-event kernel. Virtual time,
//     seeded randomness, single-threaded event execution. All experiments
//     and protocol tests run here so results are a pure function of the
//     seed.
//   - Loop (this package): a wall-clock runtime for real deployments. A
//     monotonic clock, a hashed timer wheel, and a serial executor: a
//     token held by the loop's event goroutine, or on an idle loop by the
//     goroutine handing work in, which then runs it without waking
//     anyone. Protocol code keeps the simulator's "no locks above the
//     kernel" structure while real sockets feed it from other goroutines.
//
// Around Loop, this package provides the scaling machinery of the shared
// and poll I/O modes:
//
//   - Lane: a connection-keyed FIFO into a loop, so N connections can
//     multiplex one executor while each keeps strict per-connection
//     callback order.
//   - LoopGroup: a loop per core with least-loaded assignment — the
//     process shape behind minion.LoopGroup.
//   - Signal: a coalescing edge (raise-many, fire-once) that delivers I/O
//     readiness into a lane without allocation.
//   - Parker: pluggable loop parking. The wire package's epoll poller
//     implements it so the loop's event goroutine parks on the epoll set
//     itself — readiness events and posted work share one wake-up path,
//     and an idle loop strands no OS thread.
//
// The split mirrors the protocol-logic / I/O separation QUIC-era stacks
// make: the state machines are engine-agnostic, and only the lowest layer
// knows whether events come from a virtual clock or the operating system.
package rt
