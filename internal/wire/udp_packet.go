package wire

import (
	"net"
	"net/netip"

	"minion/internal/buf"
	"minion/internal/udp"
)

// UDPPacketConn is the unconnected counterpart of UDPConn over the same
// socket core: one shared socket receiving datagrams from many peers,
// each delivered with its source address so a demuxing layer (the uTCP
// listener) can route it to the right per-peer endpoint. Receives and
// sends batch exactly as on UDPConn, so both ends of a flow run the same
// I/O path.
type UDPPacketConn struct{ udpSock }

// ListenUDPPacket opens an unconnected UDP socket on addr and starts its
// reader. cfg sizes the kernel buffers exactly as for UDPConn.
func ListenUDPPacket(network, addr string, cfg UDPConfig) (*UDPPacketConn, error) {
	ua, err := net.ResolveUDPAddr(network, addr)
	if err != nil {
		return nil, err
	}
	nc, err := net.ListenUDP(network, ua)
	if err != nil {
		return nil, err
	}
	return NewUDPPacketConn(nc, cfg), nil
}

// NewUDPPacketConn wraps an open unconnected socket.
func NewUDPPacketConn(nc *net.UDPConn, cfg UDPConfig) *UDPPacketConn {
	c := &UDPPacketConn{}
	c.open(nc, cfg, nil)
	return c
}

// OnPacket registers the delivery callback, which runs on the event loop
// and takes ownership of each datagram's buffer. Packets that arrived
// before registration flush through it in arrival order, atomically with
// registration. A nil fn stops delivery (subsequent packets queue again).
func (c *UDPPacketConn) OnPacket(fn func(b *buf.Buffer, from netip.AddrPort)) {
	c.loop.Do(func() {
		c.deliver = fn
		if fn == nil {
			return
		}
		q := c.pendQ
		c.pendQ = nil
		for _, p := range q {
			fn(p.b, p.addr)
		}
	})
}

// SendTo queues one datagram to the given peer, taking ownership of b;
// it leaves with the rest of the loop turn's sends. It must be called on
// the event loop (from OnPacket or a Do/Post closure).
func (c *UDPPacketConn) SendTo(b *buf.Buffer, to netip.AddrPort) {
	if b.Len() > udp.MaxDatagram {
		b.Release()
		return
	}
	c.send(b, to)
}
