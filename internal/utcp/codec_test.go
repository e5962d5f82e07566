package utcp

import (
	"math"
	"math/bits"
	"testing"

	"minion/internal/tcp"
)

// TestCodecWindowClamp round-trips the advertised window through Encode
// and Decode: negative windows encode as zero, and windows past the
// 32-bit field saturate at its maximum.
func TestCodecWindowClamp(t *testing.T) {
	cases := []struct{ in, want int }{
		{-1, 0},
		{0, 0},
		{65535, 65535},
	}
	if bits.UintSize == 64 {
		// Variables, not constants: these overflow a 32-bit int.
		wide, max32 := uint64(1)<<33, uint64(math.MaxUint32)
		cases = append(cases, struct{ in, want int }{int(wide), int(max32)})
	}
	for _, tc := range cases {
		b := Encode(&tcp.Segment{Flags: tcp.FlagACK, Window: tc.in})
		var seg tcp.Segment
		var sack [tcp.MaxSACKBlocks]tcp.SACKBlock
		err := Decode(b.Bytes(), &seg, &sack)
		b.Release()
		if err != nil {
			t.Fatalf("Window %d: Decode: %v", tc.in, err)
		}
		if seg.Window != tc.want {
			t.Errorf("Window %d decoded as %d, want %d", tc.in, seg.Window, tc.want)
		}
	}
}
