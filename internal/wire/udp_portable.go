//go:build !linux || (!amd64 && !arm64)

package wire

import "minion/internal/udp"

// Portable UDP primitives: one datagram per syscall through the net
// package, a batch of one. The batched recvmmsg/sendmmsg primitives are
// Linux-only (udp_linux.go); everything around either lives in the
// shared core (udp.go).

const udpBatch = 1

// mmsgState has no portable content.
type mmsgState struct{}

func (s *udpSock) initIO() { s.rslots[0] = make([]byte, udp.MaxDatagram) }

func (s *udpSock) releaseIO() {}

// recv receives one datagram into the slot with its source address
// (width is always 1 here).
func (s *udpSock) recv(width int) (int, error) {
	n, from, err := s.nc.ReadFromUDPAddrPort(s.slot(0))
	if err != nil {
		return 0, err
	}
	s.rlen[0], s.rfrom[0] = n, from
	return 1, nil
}

// sendBatch sends q's head: addressed on an unconnected socket, plain on
// a connected one.
func (s *udpSock) sendBatch(q []udpMsg) (int, error) {
	var err error
	if to := q[0].addr; to.IsValid() {
		_, err = s.nc.WriteToUDPAddrPort(q[0].b.Bytes(), to)
	} else {
		_, err = s.nc.Write(q[0].b.Bytes())
	}
	if err != nil {
		return 0, err
	}
	return 1, nil
}
