//go:build linux && (amd64 || arm64)

package wire

import (
	"net"
	"net/netip"
	"strconv"
	"syscall"
	"unsafe"

	"minion/internal/udp"
)

// Batched UDP primitives: recvmmsg pulls up to udpBatch datagrams per
// syscall, each with its source address; sendmmsg pushes a queued burst
// out in one, each with its own destination (none on a connected
// socket). Both run through syscall.RawConn so the sockets stay inside
// the Go netpoller (MSG_DONTWAIT plus wait-for-ready, never a blocked
// thread). Everything around them lives in the shared core (udp.go).
//
// The syscalls are issued directly against the stdlib syscall package —
// no cgo, no external deps; non-Linux (and exotic-arch) builds use the
// portable primitives in udp_portable.go.

// udpBatch is the mmsg vector width: 32 datagrams per syscall amortizes
// the crossing well past the point of diminishing returns while keeping
// the receive slots' mapping at 2 MiB of address space per socket.
const udpBatch = 32

// mmsghdr mirrors the kernel's struct mmsghdr. On 64-bit targets
// msghdr is 56 bytes and 8-aligned, so the explicit pad lands msg_len at
// the kernel's offset and sizes the element at 64 bytes.
type mmsghdr struct {
	hdr  syscall.Msghdr
	nlen uint32
	_    [4]byte
}

// compile-time layout check: one mmsghdr must be exactly 64 bytes.
var _ = [1]byte{}[64-unsafe.Sizeof(mmsghdr{})]

// mmsgState is the per-socket batching scratch, reused across rounds.
// Names are sockaddr_in6-sized, which holds either family.
type mmsgState struct {
	rc        syscall.RawConn
	family    int  // socket family: how destinations encode
	connected bool // the kernel fixes the peer: no names either way

	rzone, szone zoneCache // the reader's and the loop's

	rhdrs  [udpBatch]mmsghdr
	riov   [udpBatch]syscall.Iovec
	rnames [udpBatch]syscall.RawSockaddrInet6

	shdrs  [udpBatch]mmsghdr
	siov   [udpBatch]syscall.Iovec
	snames [udpBatch]syscall.RawSockaddrInet6

	// The RawConn callbacks, built once in initIO so a syscall allocates
	// no closure, with their argument (vector width) and results. The
	// receive trio is reader-owned, the send trio loop-confined.
	rfn, sfn       func(fd uintptr) bool
	rwidth, swidth int
	rn, sn         int
	rerr, serr     syscall.Errno
}

// initIO maps the receive slots, wires the raw descriptor and learns
// the socket family. The slots live in one anonymous mapping so only the
// pages datagrams actually write become resident: udpBatch heap arenas
// would be zeroed, and so resident, in full.
func (s *udpSock) initIO() {
	m := &s.mm
	ring, err := syscall.Mmap(-1, 0, udpBatch*udp.MaxDatagram,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		ring = make([]byte, udpBatch*udp.MaxDatagram)
	}
	for i := range s.rslots {
		s.rslots[i] = ring[i*udp.MaxDatagram : (i+1)*udp.MaxDatagram]
	}
	m.rc, _ = s.nc.SyscallConn() // errors only for a nil *net.UDPConn
	m.rfn = func(fd uintptr) bool {
		r1, _, e := syscall.Syscall6(sysRECVMMSG, fd,
			uintptr(unsafe.Pointer(&m.rhdrs[0])), uintptr(m.rwidth),
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			return false // park in the netpoller until readable
		}
		m.rn, m.rerr = int(r1), e
		return true
	}
	m.sfn = func(fd uintptr) bool {
		r1, _, e := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&m.shdrs[0])), uintptr(m.swidth),
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			return false // wait for writability, then resume
		}
		m.sn, m.serr = int(r1), e
		return true
	}
	m.connected = s.nc.RemoteAddr() != nil
	m.family = syscall.AF_INET6
	m.rc.Control(func(fd uintptr) {
		if sa, err := syscall.Getsockname(int(fd)); err == nil {
			if _, ok := sa.(*syscall.SockaddrInet4); ok {
				m.family = syscall.AF_INET
			}
		}
	})
}

// releaseIO unmaps the receive slots once the reader is done with them
// (every datagram landing there was copied out). A heap fallback is not
// a mapping, and Munmap refuses it harmlessly.
func (s *udpSock) releaseIO() {
	syscall.Munmap(s.rslots[0][:udpBatch*udp.MaxDatagram])
}

// recv receives into the first width slots with one recvmmsg, filling
// s.rlen and s.rfrom (left zero on a connected socket, whose one peer
// needs no decoding).
func (s *udpSock) recv(width int) (int, error) {
	m := &s.mm
	for i := 0; i < width; i++ {
		slot := s.slot(i)
		m.riov[i] = syscall.Iovec{Base: &slot[0]}
		m.riov[i].SetLen(len(slot))
		m.rhdrs[i] = mmsghdr{}
		m.rhdrs[i].hdr.Iov = &m.riov[i]
		m.rhdrs[i].hdr.Iovlen = 1
		if !m.connected {
			m.rhdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&m.rnames[i]))
			m.rhdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
		}
	}
	m.rwidth = width
	if err := m.rc.Read(m.rfn); err != nil {
		return 0, net.ErrClosed // the descriptor is gone
	}
	if m.rerr != 0 {
		return 0, m.rerr
	}
	n := m.rn
	for i := 0; i < n; i++ {
		s.rlen[i] = int(m.rhdrs[i].nlen)
		if !m.connected {
			s.rfrom[i] = decodeSockaddr(&m.rnames[i], &m.rzone)
		}
	}
	return n, nil
}

// sendBatch issues one sendmmsg over a prefix of q, returning how many
// datagrams the kernel took. A datagram whose destination cannot be
// encoded for the socket's family goes out unaddressed and fails alone,
// like WriteToUDPAddrPort's address error.
func (s *udpSock) sendBatch(q []udpMsg) (int, error) {
	m := &s.mm
	k := min(len(q), udpBatch)
	for i := 0; i < k; i++ {
		bs := q[i].b.Bytes()
		m.siov[i] = syscall.Iovec{}
		if len(bs) > 0 {
			m.siov[i].Base = &bs[0]
			m.siov[i].SetLen(len(bs))
		}
		m.shdrs[i] = mmsghdr{}
		m.shdrs[i].hdr.Iov = &m.siov[i]
		m.shdrs[i].hdr.Iovlen = 1
		if to := q[i].addr; to.IsValid() {
			if n := encodeSockaddr(&m.snames[i], m.family, to, &m.szone); n > 0 {
				m.shdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&m.snames[i]))
				m.shdrs[i].hdr.Namelen = n
			}
		}
	}
	m.swidth = k
	if err := m.rc.Write(m.sfn); err != nil {
		return 0, net.ErrClosed
	}
	if m.serr != 0 {
		return 0, m.serr
	}
	return m.sn, nil
}

// zoneCache remembers the last interface a zone resolved to, so a flow
// to a link-local peer does not dump the interface table (a netlink
// round trip) per datagram. Only a found interface is cached, so one that
// comes up later is found; a rename shows once the flow's zone changes.
// Each cache has a single owner goroutine.
type zoneCache struct{ ifi net.Interface }

// lookup finds an interface by index (name empty) or by name.
func (z *zoneCache) lookup(index int, name string) *net.Interface {
	if z.ifi.Index == 0 || (index != z.ifi.Index && name != z.ifi.Name) {
		var ifi *net.Interface
		var err error
		if name != "" {
			ifi, err = net.InterfaceByName(name)
		} else {
			ifi, err = net.InterfaceByIndex(index)
		}
		if err != nil {
			return nil
		}
		z.ifi = *ifi
	}
	return &z.ifi
}

// encodeSockaddr writes to in the kernel sockaddr layout of the socket's
// family — the conversion WriteToUDPAddrPort makes: an IPv4 destination
// takes the IPv4-mapped form on an AF_INET6 socket, a mapped one unmaps
// on AF_INET, and a zone becomes the scope id. It returns msg_namelen, or
// 0 when the address does not fit the family.
func encodeSockaddr(sa *syscall.RawSockaddrInet6, family int, to netip.AddrPort, zones *zoneCache) uint32 {
	ip := to.Addr()
	port := (*[2]byte)(unsafe.Pointer(&sa.Port)) // same offset in both layouts
	if family == syscall.AF_INET {
		if ip = ip.Unmap(); !ip.Is4() {
			return 0
		}
		p := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		*p = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: ip.As4()}
		port[0], port[1] = byte(to.Port()>>8), byte(to.Port())
		return syscall.SizeofSockaddrInet4
	}
	*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: ip.As16()}
	if z := ip.Zone(); z != "" {
		if ifi := zones.lookup(0, z); ifi != nil {
			sa.Scope_id = uint32(ifi.Index)
		} else if id, err := strconv.ParseUint(z, 10, 32); err == nil {
			sa.Scope_id = uint32(id)
		}
	}
	port[0], port[1] = byte(to.Port()>>8), byte(to.Port())
	return syscall.SizeofSockaddrInet6
}

// decodeSockaddr reads a received source address exactly as
// ReadFromUDPAddrPort reports it: 4-byte on an AF_INET socket, 16-byte
// (IPv4-mapped for IPv4 senders) on AF_INET6, a scope id as the
// interface's name (its number when no interface has it).
func decodeSockaddr(sa *syscall.RawSockaddrInet6, zones *zoneCache) netip.AddrPort {
	pb := (*[2]byte)(unsafe.Pointer(&sa.Port))
	port := uint16(pb[0])<<8 | uint16(pb[1])
	if sa.Family == syscall.AF_INET {
		p := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(p.Addr), port)
	}
	ip := netip.AddrFrom16(sa.Addr)
	if id := sa.Scope_id; id != 0 {
		zone := strconv.FormatUint(uint64(id), 10)
		if ifi := zones.lookup(int(id), ""); ifi != nil {
			zone = ifi.Name
		}
		ip = ip.WithZone(zone)
	}
	return netip.AddrPortFrom(ip, port)
}
