package main

import (
	"crypto/tls"
	"errors"
	"fmt"
	"time"

	"minion/internal/cobs"
	"minion/internal/tcp"
	"minion/internal/tlshake"
	"minion/internal/tlsrec"
	"minion/internal/utcp"
)

// Per-layer costs are measured from outside the program: by timing calls
// into each layer's public functions at the workload's datagram shape, and
// by reading the layers' public counters. Nothing here reaches inside a
// layer.

// layerCosts are the timed layer calls.
type layerCosts struct {
	handshakeMS          float64
	sealNS, openNS       float64
	utcpEncNS, utcpDecNS float64
	cobsEncNS, cobsDecNS float64
	framedBytes          int // the workload datagram as its framing layer puts it on the stream
}

const (
	layerRounds = 5    // each cost is the median of this many rounds
	layerOps    = 4096 // calls per round
)

// handshake runs one genuine TLS 1.2 handshake between two tlshake engines
// in memory, feeding each flight's records to the peer.
func handshake(cr *creds) (*tlshake.Engine, *tlshake.Engine, error) {
	gcm := []uint16{tls.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256}
	cli := tlshake.NewClient(tlshake.Config{RootCAs: cr.pool, ServerName: serverName, CipherSuites: gcm})
	srv := tlshake.NewServer(tlshake.Config{Certificate: &cr.cert, CipherSuites: gcm})
	toSrv, err := cli.Start()
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < 8 && !(cli.Done() && srv.Done()); i++ {
		toCli, err := feed(srv, toSrv)
		if err != nil {
			return nil, nil, fmt.Errorf("server: %w", err)
		}
		if toSrv, err = feed(cli, toCli); err != nil {
			return nil, nil, fmt.Errorf("client: %w", err)
		}
	}
	if !cli.Done() || !srv.Done() {
		return nil, nil, errors.New("in-memory handshake did not complete")
	}
	return cli, srv, nil
}

// feed hands every complete record in stream to e and returns e's replies.
func feed(e *tlshake.Engine, stream []byte) ([]byte, error) {
	var out []byte
	for len(stream) > 0 && !e.Done() {
		_, _, n, err := tlsrec.ParseHeader(stream)
		if err != nil || len(stream) < tlsrec.HeaderSize+n {
			return out, errors.New("bad handshake record framing")
		}
		resp, err := e.Feed(stream[:tlsrec.HeaderSize+n])
		out = append(out, resp...)
		if err != nil {
			return out, err
		}
		stream = stream[tlsrec.HeaderSize+n:]
	}
	return out, nil
}

// perOp times fn(i) for layerOps calls per round and returns the median
// round's nanoseconds per call.
func perOp(fn func(i int) error) (float64, error) {
	rounds := make([]float64, layerRounds)
	for r := range rounds {
		t0 := time.Now()
		for i := 0; i < layerOps; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		rounds[r] = float64(time.Since(t0).Nanoseconds()) / layerOps
	}
	return median(rounds, func(v float64) float64 { return v }), nil
}

// measureLayers times the handshake and the per-datagram codec layers at
// the workload's datagram size.
func measureLayers(cr *creds, w workload) (layerCosts, error) {
	var c layerCosts
	var hs []float64
	var engines [][2]*tlshake.Engine
	for i := 0; i < layerRounds; i++ {
		t0 := time.Now()
		cli, srv, err := handshake(cr)
		if err != nil {
			return c, fmt.Errorf("tlshake: %w", err)
		}
		hs = append(hs, float64(time.Since(t0).Nanoseconds())/1e6)
		engines = append(engines, [2]*tlshake.Engine{cli, srv})
	}
	c.handshakeMS = median(hs, func(v float64) float64 { return v })

	// Seal timing runs on one session's keys; open timing on another's,
	// whose sealer and opener stay in sequence.
	plain := make([]byte, w.size)
	seal, _ := engines[0][0].Keys()
	recLen := tlsrec.SuiteTLS12GCM.SealedLen(w.size)
	recs := make([]byte, layerOps*recLen)
	var err error
	if c.sealNS, err = perOp(func(i int) error {
		_, err := seal.SealInto(recs[i*recLen:(i+1)*recLen], tlsrec.TypeAppData, plain)
		return err
	}); err != nil {
		return c, fmt.Errorf("tlsrec seal: %w", err)
	}
	seal, _ = engines[1][0].Keys()
	_, open := engines[1][1].Keys()
	var opens []float64
	for r := 0; r < layerRounds; r++ {
		for i := 0; i < layerOps; i++ {
			if _, err := seal.SealInto(recs[i*recLen:(i+1)*recLen], tlsrec.TypeAppData, plain); err != nil {
				return c, fmt.Errorf("tlsrec seal: %w", err)
			}
		}
		t0 := time.Now()
		for i := 0; i < layerOps; i++ {
			if _, _, err := open.OpenInPlace(recs[i*recLen : (i+1)*recLen]); err != nil {
				return c, fmt.Errorf("tlsrec open: %w", err)
			}
		}
		opens = append(opens, float64(time.Since(t0).Nanoseconds())/layerOps)
	}
	c.openNS = median(opens, func(v float64) float64 { return v })

	enc := cobs.Encode(nil, plain)
	dst := make([]byte, 0, cobs.MaxEncodedLen(w.size))
	if c.cobsEncNS, err = perOp(func(int) error { dst = cobs.Encode(dst[:0], plain); return nil }); err != nil {
		return c, err
	}
	out := make([]byte, 0, w.size)
	if c.cobsDecNS, err = perOp(func(int) error { out, err = cobs.Decode(out[:0], enc); return err }); err != nil {
		return c, fmt.Errorf("cobs decode: %w", err)
	}

	// The segment carries the datagram as uTLS writes it to the stream: one
	// sealed record.
	seg := tcp.Segment{Flags: tcp.FlagACK, Seq: 1 << 20, Ack: 1, Window: 1 << 16, Payload: make([]byte, recLen)}
	if c.utcpEncNS, err = perOp(func(int) error { utcp.Encode(&seg).Release(); return nil }); err != nil {
		return c, err
	}
	pkt := utcp.Encode(&seg)
	defer pkt.Release()
	var got tcp.Segment
	var sack [tcp.MaxSACKBlocks]tcp.SACKBlock
	if c.utcpDecNS, err = perOp(func(int) error { return utcp.Decode(pkt.Bytes(), &got, &sack) }); err != nil {
		return c, fmt.Errorf("utcp decode: %w", err)
	}
	return c, nil
}

// layerCounts sums the protocol counters of every measured connection.
type layerCounts struct {
	segsSent, segsRetrans, timeouts, fastRecoveries float64 // sending uTCP end
	acksSent, segsReceived, tcpOOO                  float64 // receiving uTCP end
	predictExact, macAttempts, utlsOOO              float64 // receiving uTLS end
}

func (lc *layerCounts) add(cli, srv connStats) {
	lc.segsSent += float64(cli.tcp.SegsSent)
	lc.segsRetrans += float64(cli.tcp.SegsRetrans)
	lc.timeouts += float64(cli.tcp.Timeouts)
	lc.fastRecoveries += float64(cli.tcp.FastRecoveries)
	lc.acksSent += float64(srv.tcp.AcksSent)
	lc.segsReceived += float64(srv.tcp.SegsReceived)
	lc.tcpOOO += float64(srv.tcp.DeliveredOOO)
	lc.predictExact += float64(srv.utls.PredictExact)
	lc.macAttempts += float64(srv.utls.MACAttempts)
	lc.utlsOOO += float64(srv.utls.DeliveredOOO)
}

// layerMetrics fills the traced run's per-layer metrics. Protocol counters
// cover every measured connection; process-wide counter ratios cover the
// untraced first half of the blocks; Send and hand-off durations cover
// the traced second half.
func layerMetrics(r *report, w workload, blocks []*block, c layerCosts, timings []setupTiming) {
	half := len(blocks) / 2
	untraced, traced := pool(w, blocks[:half]), pool(w, blocks[half:])
	var lc layerCounts
	sendH, doH := newHist(), newHist()
	for i, b := range blocks {
		lc.add(b.cli, b.srv)
		if i >= half {
			sendH.merge(b.sendH)
			doH.merge(b.doH)
		}
	}
	// delta sums what f reads off the process-wide counters across the
	// untraced blocks' windows.
	delta := func(f func(c counters) uint64) float64 {
		var sum uint64
		for _, b := range blocks[:half] {
			sum += f(b.ctr[1]) - f(b.ctr[0])
		}
		return float64(sum)
	}
	d := float64(untraced.deliveries)
	gets := delta(func(c counters) uint64 { return c.buf.Gets })

	r.set("tcp.retransmit_ratio", "ratio", ratio(lc.segsRetrans, lc.segsSent))
	r.set("tcp.timeouts", "count", lc.timeouts)
	r.set("tcp.fast_recoveries", "count", lc.fastRecoveries)
	r.set("tcp.acks_per_data_segment", "ratio", ratio(lc.acksSent, lc.segsReceived))
	r.set("tcp.ooo_delivery_ratio", "ratio", ratio(lc.tcpOOO, lc.segsReceived))

	r.set("utls.predict_exact_ratio", "ratio", ratio(lc.predictExact, lc.utlsOOO))
	r.set("utls.mac_attempts_per_ooo_record", "ratio", ratio(lc.macAttempts, lc.utlsOOO))
	r.set("tlsrec.seal_ns", "ns", c.sealNS)
	r.set("tlsrec.open_ns", "ns", c.openNS)

	r.set("wire.send_syscalls_per_datagram", "count",
		ratio(delta(func(c counters) uint64 { return c.io.TCPWriteCalls + c.io.UDPSendCalls }), d))
	r.set("wire.recv_syscalls_per_datagram", "count",
		ratio(delta(func(c counters) uint64 { return c.io.TCPReadCalls + c.io.UDPRecvCalls }), d))
	r.set("wire.poll_wakeups_per_datagram", "count", ratio(delta(func(c counters) uint64 { return c.io.PollWakeups }), d))
	r.set("wire.bytes_per_payload_byte", "ratio",
		ratio(delta(func(c counters) uint64 { return c.io.TCPWriteBytes + c.udpBytes }), d*float64(w.size)))
	r.set("utcp.encode_ns", "ns", c.utcpEncNS)
	r.set("utcp.decode_ns", "ns", c.utcpDecNS)
	r.set("cobs.encode_ns", "ns", c.cobsEncNS)
	r.set("cobs.decode_ns", "ns", c.cobsDecNS)
	r.set("buf.gets_per_datagram", "count", ratio(gets, d))
	r.set("buf.pool_hit_ratio", "ratio", ratio(delta(func(c counters) uint64 { return c.buf.PoolHits }), gets))
	r.set("go.allocs_per_datagram", "count", ratio(delta(func(c counters) uint64 { return c.mallocs }), d))
	r.set("go.gc_cycles", "count", delta(func(c counters) uint64 { return c.gcs }))

	sendP50 := sendH.quantile(0.50) / 1e3
	r.set("minion.send_us_p50", "us", sendP50)
	r.set("minion.send_us_p99", "us", sendH.quantile(0.99)/1e3)
	r.set("rt.do_us_p50", "us", doH.quantile(0.50)/1e3)

	r.set("minion.dial_ms", "ms", median(timings, func(st setupTiming) float64 { return st.dial.Seconds() * 1e3 }))
	r.set("minion.accept_ms", "ms", median(timings, func(st setupTiming) float64 { return st.accept.Seconds() * 1e3 }))
	r.set("tlshake.handshake_ms", "ms", c.handshakeMS)

	// What the receive path costs in the layers timed above; the send
	// path's layers are inside the Send duration already. Every workload
	// runs uTLS.
	recvNS := c.openNS
	if w.network == "udp" {
		recvNS += c.utcpDecNS
	}
	r.set("unattributed_us_p50", "us", traced.p50*1e3-sendP50-recvNS/1e3)
	r.set("gen.late_ms_p99", "ms", traced.lateP99)
	r.set("trace_overhead_pct", "%", 100*(ratio(traced.cpu, untraced.cpu)-1))
	r.set("latency_samples", "count", float64(r.samples))
}
