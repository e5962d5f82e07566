package wire

import (
	"sync/atomic"
)

// IOStats is a process-wide snapshot of socket-boundary activity: the
// numerators of the repository benchmark's per-datagram syscall and
// wake-up rows (perfbench's wire.* metrics) and of the accept-path
// robustness counters. Counters are cumulative since process start;
// subtract two snapshots to meter an interval.
//
// TCPWriteCalls counts vectored write operations (writev batches) issued
// to kernel sockets: each is at least one write syscall, and exactly one
// except when the kernel takes a batch in several partial writes (in poll
// mode every writev is counted individually, so there the value is
// exact). TCPReadCalls counts socket reads from both the blocking reader
// goroutines and the poll-mode non-blocking drain (including the EAGAIN
// probe that ends each drain). PollWakeups counts epoll_wait returns with
// at least one event — the scheduler-visible cost of poll mode.
type IOStats struct {
	TCPWriteCalls uint64 // vectored writes issued (≥1 syscall each)
	TCPWriteBytes uint64
	TCPReadCalls  uint64 // socket read syscalls (reader goroutines + poll drains)

	PollWakeups uint64 // epoll_wait returns carrying ≥1 event

	UDPSendCalls uint64 // send syscalls (sendmmsg counts once per call)
	UDPRecvCalls uint64 // receive syscalls (recvmmsg counts once per call)

	// AcceptErrors counts accept calls that failed for a reason other
	// than fd exhaustion or benign churn (ECONNABORTED is counted here
	// too, though the accept path retries past it); AcceptBackoffs counts
	// EMFILE/ENFILE episodes — each is one backoff sleep during which the
	// listener stopped accepting. Both were previously invisible: an
	// fd-exhausted listener just went quiet.
	AcceptErrors   uint64
	AcceptBackoffs uint64

	// AcceptPauses counts admission-control pause episodes: a listener
	// whose Config.Governor crossed its high watermark stopped accepting
	// (new connections wait in the kernel backlog) until usage drained
	// below the low watermark; AcceptResumes counts the matching
	// releases. In the sharded accept shape each per-loop socket pauses
	// and resumes independently, so one overload episode counts once per
	// shard that had intake during it.
	AcceptPauses  uint64
	AcceptResumes uint64
}

// ioCounters is one shard of the I/O statistics. At c100k scale every
// socket read and write bumps these counters from whichever loop owns
// the connection, so a single process-wide struct of atomics becomes a
// cache line ping-ponging between every core (measured as a hard
// scaling ceiling on multi-loop sweeps). Counters are therefore sharded:
// each connection, UDP socket, and poller holds a pointer to one shard,
// assigned round-robin at construction, and ReadIOStats sums the shards.
// The trailing pad rounds the struct up to two 64-byte cache lines so
// adjacent shards in the backing array never share a line (10 × 8 = 80
// bytes of counters + 48 pad = 128).
type ioCounters struct {
	tcpWriteCalls, tcpWriteBytes, tcpReadCalls atomic.Uint64
	pollWakeups                                atomic.Uint64
	udpSendCalls, udpRecvCalls                 atomic.Uint64
	acceptErrors, acceptBackoffs               atomic.Uint64
	acceptPauses, acceptResumes                atomic.Uint64
	_                                          [48]byte
}

// ioShards is sized to comfortably exceed any realistic loop count while
// keeping the summing loop in ReadIOStats trivial (32 × 128 B = 4 KiB).
const ioShards = 32

var iostatShards [ioShards]ioCounters

// ioNext is the round-robin cursor for shard assignment. Assignment
// happens once per connection/poller construction — never on the I/O
// path — so a single shared atomic is fine here.
var ioNext atomic.Uint32

// nextIO hands out the next stat shard round-robin. Distinct loops'
// pollers and the connections they own tend to land on distinct shards,
// which is all the de-contention needed: exact affinity doesn't matter,
// only that two cores rarely hammer the same line.
func nextIO() *ioCounters {
	n := ioNext.Add(1)
	return &iostatShards[n%ioShards]
}

// ReadIOStats returns the current counters, summed across shards.
func ReadIOStats() IOStats {
	var s IOStats
	for i := range iostatShards {
		c := &iostatShards[i]
		s.TCPWriteCalls += c.tcpWriteCalls.Load()
		s.TCPWriteBytes += c.tcpWriteBytes.Load()
		s.TCPReadCalls += c.tcpReadCalls.Load()
		s.PollWakeups += c.pollWakeups.Load()
		s.UDPSendCalls += c.udpSendCalls.Load()
		s.UDPRecvCalls += c.udpRecvCalls.Load()
		s.AcceptErrors += c.acceptErrors.Load()
		s.AcceptBackoffs += c.acceptBackoffs.Load()
		s.AcceptPauses += c.acceptPauses.Load()
		s.AcceptResumes += c.acceptResumes.Load()
	}
	return s
}
