package utcp

import (
	"encoding/binary"
	"errors"
	"math"

	"minion/internal/buf"
	"minion/internal/tcp"
	"minion/internal/udp"
)

// Wire layout of one uTCP-over-UDP packet (all integers big-endian; see
// docs/WIREFORMAT.md "uTCP over UDP"):
//
//	[0]     magic      0xD5
//	[1]     version    1
//	[2]     flags      tcp.Flags bits (SYN|ACK|FIN|RST); others reject
//	[3]     nsack      SACK block count, 0..3
//	[4:8]   window     advertised receive window, bytes
//	[8:16]  seq        sequence number
//	[16:24] ack        acknowledgment number
//	[24:]   nsack × {start uint64, end uint64}, then payload
//
// Sequence fields are 64-bit like the internal machinery: the UDP
// encapsulation owns its own header, so there is no 32-bit TCP field to
// stay compatible with, and wraparound arithmetic disappears.
const (
	// Magic is the first byte of every uTCP-over-UDP packet.
	Magic = 0xD5
	// Version is the only packet format this codec speaks.
	Version = 1
	// HeaderLen is the fixed header size before SACK blocks and payload.
	HeaderLen = 24
	// sackBlockLen is the encoded size of one SACK block.
	sackBlockLen = 16
	// DefaultMSS is the default segment payload bound for UDP carriage:
	// 1400 payload + 24 uTCP header + up to 48 bytes of SACK blocks +
	// 28 bytes UDP/IP fits a 1500-byte MTU without fragmentation.
	DefaultMSS = 1400
)

// flagsMask is every flag bit the codec accepts; unknown bits reject the
// packet rather than silently degrading into a state machine that never
// anticipated them.
const flagsMask = tcp.FlagSYN | tcp.FlagACK | tcp.FlagFIN | tcp.FlagRST

// Decode errors, in rough order of suspicion.
var (
	ErrTruncated = errors.New("utcp: truncated packet")
	ErrMagic     = errors.New("utcp: bad magic")
	ErrVersion   = errors.New("utcp: unknown version")
	ErrFlags     = errors.New("utcp: unknown flag bits")
	ErrSACK      = errors.New("utcp: malformed SACK blocks")
)

// Encode serializes seg into a pooled buffer ready to travel as one UDP
// datagram — the send path's single payload copy. The caller owns the
// returned buffer (Bind hands it straight to the shim, which takes it).
func Encode(seg *tcp.Segment) *buf.Buffer {
	n := HeaderLen + len(seg.SACK)*sackBlockLen + len(seg.Payload)
	b := buf.Get(n)
	p := b.Bytes()
	p[0] = Magic
	p[1] = Version
	p[2] = byte(seg.Flags)
	p[3] = byte(len(seg.SACK))
	// Clamp in uint64: an int cannot hold MaxUint32 on 32-bit platforms.
	w := uint32(0)
	if seg.Window > 0 {
		w = uint32(min(uint64(seg.Window), math.MaxUint32))
	}
	binary.BigEndian.PutUint32(p[4:8], w)
	binary.BigEndian.PutUint64(p[8:16], seg.Seq)
	binary.BigEndian.PutUint64(p[16:24], seg.Ack)
	off := HeaderLen
	for _, sb := range seg.SACK {
		binary.BigEndian.PutUint64(p[off:], sb.Start)
		binary.BigEndian.PutUint64(p[off+8:], sb.End)
		off += sackBlockLen
	}
	copy(p[off:], seg.Payload)
	return b
}

// Decode parses pkt into seg, validating everything an adversarial
// network could bend: length, magic, version, flag bits, SACK count and
// block sanity. SACK blocks land in the caller's scratch array (no
// allocation on the receive path) and seg.Payload aliases pkt — the
// caller decides whether to back it with a refcounted buffer slice
// (Bind does) or copy. seg.Buf is left untouched.
func Decode(pkt []byte, seg *tcp.Segment, sack *[tcp.MaxSACKBlocks]tcp.SACKBlock) error {
	if len(pkt) < HeaderLen {
		return ErrTruncated
	}
	if pkt[0] != Magic {
		return ErrMagic
	}
	if pkt[1] != Version {
		return ErrVersion
	}
	fl := tcp.Flags(pkt[2])
	if fl&^flagsMask != 0 {
		return ErrFlags
	}
	nsack := int(pkt[3])
	if nsack > tcp.MaxSACKBlocks {
		return ErrSACK
	}
	off := HeaderLen + nsack*sackBlockLen
	if len(pkt) < off {
		return ErrTruncated
	}
	seg.Flags = fl
	seg.Window = int(min(uint64(binary.BigEndian.Uint32(pkt[4:8])), math.MaxInt))
	seg.Seq = binary.BigEndian.Uint64(pkt[8:16])
	seg.Ack = binary.BigEndian.Uint64(pkt[16:24])
	for i := 0; i < nsack; i++ {
		o := HeaderLen + i*sackBlockLen
		blk := tcp.SACKBlock{
			Start: binary.BigEndian.Uint64(pkt[o : o+8]),
			End:   binary.BigEndian.Uint64(pkt[o+8 : o+16]),
		}
		if blk.Start >= blk.End {
			return ErrSACK
		}
		sack[i] = blk
	}
	seg.SACK = sack[:nsack]
	seg.Payload = pkt[off:]
	return nil
}

// MaxPacket is the largest packet Encode can produce for a given MSS.
func MaxPacket(mss int) int {
	return HeaderLen + tcp.MaxSACKBlocks*sackBlockLen + mss
}

// compile-time guarantee that a full-MSS packet fits a UDP datagram.
const _ uint = udp.MaxDatagram - HeaderLen - tcp.MaxSACKBlocks*sackBlockLen - DefaultMSS
