package netrun

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"parsec/internal/ptg"
	"parsec/internal/tensor"
	"parsec/internal/trace"
)

// tile constructs a small Tile4 with distinctive, non-round values so a
// byte-level round-trip slip shows up in the comparison.
func tile(seed float64) *tensor.Tile4 {
	t := &tensor.Tile4{Dim: [4]int{2, 1, 3, 1}, Data: make([]float64, 6)}
	for i := range t.Data {
		t.Data[i] = seed + float64(i)*0.3125
	}
	return t
}

// panelTile is a born-packed tile of the given kind and strip width: a
// 3 x 10 matrix whose strips are padded (10 is no multiple of 4 or 16).
func panelTile(kind tensor.LayoutKind, strip uint8, seed uint64) *tensor.Tile4 {
	t := tensor.NewTile4Layout([4]int{3, 1, 2, 5}, tensor.Layout{Kind: kind, Strip: strip})
	t.FillRandom(seed, 1)
	return t
}

// decodeFrame parses one frame from the front of buf, returning the
// frame and the number of bytes consumed. It returns (zero, 0, nil)
// when buf holds only a partial frame, and an error for any malformed
// prefix.
func decodeFrame(buf []byte) (frame, int, error) {
	if len(buf) < frameHeaderLen {
		return frame{}, 0, nil
	}
	f, n, err := decodeHeader(buf)
	if err != nil {
		return frame{}, 0, err
	}
	total := frameHeaderLen + n
	if len(buf) < total {
		return frame{}, 0, nil
	}
	f.body = buf[frameHeaderLen:total]
	return f, total, nil
}

// rawFrame builds a sealed frame around an arbitrary body, the way
// every message's encode does around its own.
func rawFrame(typ byte, id uint64, suppress bool, body []byte) []byte {
	f := sealFrame(append(newFrame(typ, len(body)), body...), id)
	setAckSuppress(f, suppress)
	return f
}

// readFrame reads exactly one frame from r through a fresh frameReader.
func readFrame(r io.Reader) (frame, error) { return newFrameReader(r).read() }

// TestFrameRoundTrip drives newFrame/sealFrame through decodeFrame and
// a frameReader for every valid type, with and without the ack-suppress
// bit, including zero-length bodies and back-to-back frames.
func TestFrameRoundTrip(t *testing.T) {
	bodies := [][]byte{nil, {0xde}, bytes.Repeat([]byte{7}, 300), bytes.Repeat([]byte{9}, 10000)}
	for typ := msgHello; typ < msgMax; typ++ {
		for i, body := range bodies {
			for _, suppress := range []bool{false, true} {
				buf := rawFrame(typ, uint64(typ)<<8|uint64(i), suppress, body)
				f, n, err := decodeFrame(buf)
				if err != nil {
					t.Fatalf("type %d: decode: %v", typ, err)
				}
				if n != len(buf) {
					t.Fatalf("type %d: consumed %d of %d bytes", typ, n, len(buf))
				}
				if f.typ != typ || f.id != uint64(typ)<<8|uint64(i) || f.suppressAck != suppress {
					t.Fatalf("type %d: frame header mangled: %+v", typ, f)
				}
				if !bytes.Equal(f.body, body) {
					t.Fatalf("type %d: body mangled", typ)
				}
				rf, err := readFrame(bytes.NewReader(buf))
				if err != nil {
					t.Fatalf("type %d: readFrame: %v", typ, err)
				}
				if rf.typ != f.typ || rf.id != f.id || !bytes.Equal(rf.body, f.body) {
					t.Fatalf("type %d: readFrame disagrees with decodeFrame", typ)
				}
			}
		}
	}
	// Two frames back to back: decodeFrame must consume exactly one, and
	// one frameReader must hand out both, reusing its body buffer.
	buf := rawFrame(msgStatus, 1, false, []byte{1, 2, 3})
	first := len(buf)
	buf = append(buf, rawFrame(msgDone, 2, false, nil)...)
	f, n, err := decodeFrame(buf)
	if err != nil || n != first || f.typ != msgStatus {
		t.Fatalf("first frame of pair: typ %d n %d err %v", f.typ, n, err)
	}
	f, _, err = decodeFrame(buf[n:])
	if err != nil || f.typ != msgDone {
		t.Fatalf("second frame of pair: typ %d err %v", f.typ, err)
	}
	fr := newFrameReader(bytes.NewReader(buf))
	if !fr.wouldBlock() {
		t.Fatal("fresh reader claims a buffered header")
	}
	if f, err := fr.read(); err != nil || f.typ != msgStatus || !bytes.Equal(f.body, []byte{1, 2, 3}) {
		t.Fatalf("reader, first of pair: %+v, %v", f, err)
	}
	if fr.wouldBlock() {
		t.Fatal("second frame is buffered but reader reports the burst over")
	}
	if f, err := fr.read(); err != nil || f.typ != msgDone || f.id != 2 || len(f.body) != 0 {
		t.Fatalf("reader, second of pair: %+v, %v", f, err)
	}
	if _, err := fr.read(); err != io.EOF {
		t.Fatalf("reader past the end: %v, want EOF", err)
	}
}

// TestFrameRejectsMalformed checks every header-level rejection path.
func TestFrameRejectsMalformed(t *testing.T) {
	good := rawFrame(msgHello, 9, false, []byte{1, 2})

	// Partial input at every prefix length: pending, never an error.
	for i := 0; i < len(good); i++ {
		f, n, err := decodeFrame(good[:i])
		if err != nil || n != 0 || f.typ != 0 {
			t.Fatalf("prefix %d: want pending, got n=%d err=%v", i, n, err)
		}
	}

	corrupt := func(mod func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mod(b)
		return b
	}
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"bad magic", corrupt(func(b []byte) { b[0] = 'X' }), errBadMagic},
		{"bad version", corrupt(func(b []byte) { b[2] = 99 }), errBadVersion},
		{"v1 peer", corrupt(func(b []byte) { b[2] = 1 }), errBadVersion},
		{"v2 peer", corrupt(func(b []byte) { b[2] = 2 }), errBadVersion},
		{"type zero", corrupt(func(b []byte) { b[3] = 0 }), errBadType},
		{"type past max", corrupt(func(b []byte) { b[3] = msgMax }), errBadType},
		{"type zero suppressed", corrupt(func(b []byte) { b[3] = ackSuppressBit }), errBadType},
		{"oversized", corrupt(func(b []byte) {
			binary.LittleEndian.PutUint32(b[12:], maxBody+1)
		}), errOversized},
	}
	for _, tc := range cases {
		if _, _, err := decodeFrame(tc.buf); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if _, err := readFrame(bytes.NewReader(tc.buf)); err == nil {
			t.Errorf("%s: readFrame accepted corrupt header", tc.name)
		}
	}

	// A v2 peer, whose tile payloads carry no layout, is told which
	// version it speaks and which this build does.
	_, _, err := decodeFrame(corrupt(func(b []byte) { b[2] = 2 }))
	if want := "netrun: unsupported protocol version 2 (this build speaks 3)"; err == nil || err.Error() != want {
		t.Errorf("v2 frame: got %v, want %q", err, want)
	}

	// A header promising more body than the stream has must surface an
	// io error from readFrame, not hang or panic.
	if _, err := readFrame(bytes.NewReader(good[:len(good)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated stream: got %v, want unexpected EOF", err)
	}
}

// TestPayloadRoundTrip round-trips every payload kind.
func TestPayloadRoundTrip(t *testing.T) {
	vals := []any{
		nil,
		tile(0.5),
		panelTile(tensor.PanelA, 8, 1),
		panelTile(tensor.PanelB, 16, 2),
		ptg.NewBuffer{Bytes: 4096},
		int(-17),
		float64(-315.378772551848),
		math.Inf(-1),
	}
	for _, v := range vals {
		size, err := payloadSize(v)
		if err != nil {
			t.Fatalf("%T: size: %v", v, err)
		}
		buf := appendPayload(nil, v)
		if len(buf) != size {
			t.Fatalf("%T: payloadSize %d, encoded %d bytes", v, size, len(buf))
		}
		c := &cursor{buf: buf}
		got := decodePayload(c, false)
		if err := c.done(); err != nil {
			t.Fatalf("%T: decode: %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("%T: round-trip changed value: %#v -> %#v", v, v, got)
		}
	}
	if _, err := payloadSize(struct{}{}); err == nil {
		t.Error("payloadSize accepted an unknown type")
	}
	if _, err := payloadSize((*tensor.Tile4)(nil)); err == nil {
		t.Error("payloadSize accepted a typed-nil tile")
	}
	// A tile whose element count disagrees with its dims must be
	// rejected, not allocated.
	bad := appendPayload(nil, tile(1))
	binary.LittleEndian.PutUint32(bad[1+32+2:], 5) // count 5, dims say 6
	c := &cursor{buf: bad}
	if p := decodePayload(c, true); p != nil || c.err == nil {
		t.Error("tile with mismatched element count decoded")
	}
	// A panel's count is its padded storage: the 30 elements of a 3 x 10
	// panel are not its 48 stored ones. Nor is any count valid under a
	// layout that does not exist.
	for name, mod := range map[string]func([]byte){
		"unpadded panel count": func(b []byte) { binary.LittleEndian.PutUint32(b[1+32+2:], 30) },
		"unknown layout kind":  func(b []byte) { b[1+32] = 3 },
		"panel strip 0":        func(b []byte) { b[1+32+1] = 0 },
		"row-major with strip": func(b []byte) { b[1+32] = byte(tensor.RowMajor) },
	} {
		bad := appendPayload(nil, panelTile(tensor.PanelB, 16, 3))
		mod(bad)
		for _, pooled := range []bool{false, true} {
			c := &cursor{buf: bad}
			if p := decodePayload(c, pooled); p != nil || c.err == nil {
				t.Errorf("%s: tile decoded (pooled=%v)", name, pooled)
			}
		}
	}
	// So must negative extents, even when their product is the count: the
	// tile pool rejects them by panicking.
	neg := appendPayload(nil, tile(1))
	binary.LittleEndian.PutUint64(neg[1:], uint64(math.MaxUint64-1))    // -2
	binary.LittleEndian.PutUint64(neg[1+16:], uint64(math.MaxUint64-2)) // -3: -2 * 1 * -3 * 1 = 6
	for _, pooled := range []bool{false, true} {
		c = &cursor{buf: neg}
		if p := decodePayload(c, pooled); p != nil || c.err == nil {
			t.Errorf("tile with negative extents decoded (pooled=%v)", pooled)
		}
	}
}

// roundTrip checks one encoded frame — exactly sized, of the right type,
// parseable once sealed — then runs its body through the decoder and
// compares the result.
func roundTrip[M any](t *testing.T, name string, in M, typ byte, f []byte, dec func([]byte) (M, error)) {
	t.Helper()
	if len(f) != cap(f) {
		t.Errorf("%s: encode sized its frame for %d bytes and wrote %d", name, cap(f), len(f))
	}
	fr, n, err := decodeFrame(sealFrame(f, 5))
	if err != nil || n != len(f) || fr.typ != typ || fr.id != 5 {
		t.Fatalf("%s: sealed frame: typ %d id %d consumed %d/%d, %v", name, fr.typ, fr.id, n, len(f), err)
	}
	enc := fr.body
	out, err := dec(enc)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("%s: round-trip changed message:\n in  %#v\n out %#v", name, in, out)
	}
	// Every strict prefix must be rejected (truncation can never decode
	// into a message silently).
	for i := 0; i < len(enc); i++ {
		if _, err := dec(enc[:i]); err == nil {
			t.Fatalf("%s: truncation to %d/%d bytes decoded cleanly", name, i, len(enc))
		}
	}
	// Trailing garbage must be rejected too.
	if _, err := dec(append(append([]byte(nil), enc...), 0xAA)); err == nil {
		t.Errorf("%s: trailing byte decoded cleanly", name)
	}
}

// TestMessageRoundTrips covers every message body codec in the
// protocol, one subtest per type, with representative field values
// (negative ints, empty and non-empty slices, tiles, special floats).
func TestMessageRoundTrips(t *testing.T) {
	t.Run("hello", func(t *testing.T) {
		m := helloMsg{From: -1} // the coordinator's rank is negative
		roundTrip(t, "hello", m, msgHello, m.encode(), decodeHello)
	})
	t.Run("register", func(t *testing.T) {
		m := registerMsg{Rank: 3, Addr: "127.0.0.1:40321"}
		roundTrip(t, "register", m, msgRegister, m.encode(), decodeRegister)
	})
	t.Run("welcome", func(t *testing.T) {
		m := welcomeMsg{Ranks: 3, Addrs: []string{"a:1", "", "long-unix-socket-path.sock"}}
		roundTrip(t, "welcome", m, msgWelcome, m.encode(), decodeWelcome)
	})
	t.Run("activate", func(t *testing.T) {
		for _, payload := range []any{nil, tile(2.25), panelTile(tensor.PanelA, 16, 4), panelTile(tensor.PanelB, 8, 5), ptg.NewBuffer{Bytes: 64}, 7, 2.5} {
			m := activateMsg{Class: "GEMM", Args: ptg.A3(4, -1, 9), Flow: 2, Payload: payload}
			enc, err := m.encode()
			if err != nil {
				t.Fatalf("activate(%T): encode: %v", payload, err)
			}
			roundTrip(t, "activate", m, msgActivate, enc, decodeActivate)
		}
	})
	t.Run("done", func(t *testing.T) {
		// The engine batches completions: one seq, a few, a full batch.
		full := make([]int, doneBatch)
		for i := range full {
			full[i] = 3 * i
		}
		for _, seqs := range [][]int{{7}, {0, 5, 1 << 40, 3}, full} {
			m := doneMsg{Seqs: seqs}
			roundTrip(t, "done", m, msgDone, m.encode(), decodeDone)
		}
		// Empty batch decodes to an empty (non-nil) slice.
		out, err := decodeDone(doneMsg{}.encode()[frameHeaderLen:])
		if err != nil || len(out.Seqs) != 0 {
			t.Fatalf("empty done: %+v, %v", out, err)
		}
	})
	t.Run("ack", func(t *testing.T) {
		burst := make([]uint64, ackBatch)
		for i := range burst {
			burst[i] = uint64(i)<<32 | 9
		}
		for _, ids := range [][]uint64{{1}, {4, 2, 1 << 63}, burst} {
			m := ackMsg{IDs: ids}
			roundTrip(t, "ack", m, msgAck, m.encode(), decodeAck)
		}
		out, err := decodeAck(ackMsg{}.encode()[frameHeaderLen:])
		if err != nil || len(out.IDs) != 0 {
			t.Fatalf("empty ack: %+v, %v", out, err)
		}
	})
	t.Run("status", func(t *testing.T) {
		m := statusMsg{Backlog: 12345}
		roundTrip(t, "status", m, msgStatus, m.encode(), decodeStatus)
	})
	t.Run("flushAck", func(t *testing.T) {
		m := flushAckMsg{Accs: 987654321}
		roundTrip(t, "flushAck", m, msgFlushAck, m.encode(), decodeFlushAck)
	})
	t.Run("accOrdered", func(t *testing.T) {
		m := accOrderedMsg{
			Name: "C", Key: tensor.BlockKey{1, 0, 2, 3},
			Tag: 41, Lo: 7, Hi: 13, Scale: -0.5, Tile: tile(3.75),
		}
		enc, err := m.encode()
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, "accOrdered", m, msgAccOrdered, enc, decodeAccOrdered)
		// An accumulation without data is always a bug; the encoder must
		// refuse the typed-nil tile rather than ship a bogus payload.
		if _, err := (accOrderedMsg{Name: "C"}).encode(); err == nil {
			t.Error("accOrdered with nil tile encoded cleanly")
		}
		// And a hand-built body with a non-tile payload must be rejected
		// on decode.
		bad := appendString(nil, "C")
		for i := 0; i < 4+3; i++ {
			bad = appendI64(bad, 0)
		}
		bad = appendF64(bad, 1)
		bad = append(bad, payNil)
		if _, err := decodeAccOrdered(bad); err == nil {
			t.Error("accOrdered with nil payload decoded cleanly")
		}
	})
	t.Run("get", func(t *testing.T) {
		m := getMsg{ReqID: 77, Name: "T2", Key: tensor.BlockKey{0, 1, 0, 4}}
		roundTrip(t, "get", m, msgGetReq, m.encode(), decodeGet)
	})
	t.Run("getResp", func(t *testing.T) {
		m := getRespMsg{ReqID: 78, Tile: tile(4.125)}
		roundTrip(t, "getResp", m, msgGetResp, m.encode(), decodeGetResp)
		// The nil tile (block absent) is a legitimate answer.
		none := getRespMsg{ReqID: 79}
		roundTrip(t, "getResp/absent", none, msgGetResp, none.encode(), decodeGetResp)
		// A non-tile payload is a protocol violation.
		buf := appendPayload(appendU64(nil, 80), int(3))
		if _, err := decodeGetResp(buf); err == nil {
			t.Error("getResp with int payload decoded cleanly")
		}
	})
	t.Run("nxtVal", func(t *testing.T) {
		m := nxtValMsg{ReqID: 81}
		roundTrip(t, "nxtVal", m, msgNxtValReq, m.encode(), decodeNxtVal)
	})
	t.Run("nxtValResp", func(t *testing.T) {
		m := nxtValRespMsg{ReqID: 82, Val: -1}
		roundTrip(t, "nxtValResp", m, msgNxtValResp, m.encode(), decodeNxtValResp)
	})
	t.Run("steal", func(t *testing.T) {
		m := stealMsg{Thief: 2}
		for _, typ := range []byte{msgStealReq, msgStealProbe, msgStealNone} {
			roundTrip(t, "steal", m, typ, m.encode(typ), decodeSteal)
		}
	})
	t.Run("migrate", func(t *testing.T) {
		m := migrateMsg{
			Class: "DFILL", Args: ptg.A2(5, 6),
			Ins: []migratePayload{
				{Flow: 0, Payload: tile(5.5)},
				{Flow: 2, Payload: nil},
				{Flow: 3, Payload: ptg.NewBuffer{Bytes: 128}},
			},
		}
		enc, err := m.encode()
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, "migrate", m, msgMigrate, enc, decodeMigrate)
		// No shipped inputs is legal (all flows data- or new-sourced).
		bare := migrateMsg{Class: "SORT", Args: ptg.A1(1)}
		enc, err = bare.encode()
		if err != nil {
			t.Fatal(err)
		}
		out, err := decodeMigrate(enc[frameHeaderLen:])
		if err != nil || len(out.Ins) != 0 || out.Class != "SORT" {
			t.Fatalf("bare migrate: %+v, %v", out, err)
		}
	})
	t.Run("takeover", func(t *testing.T) {
		m := takeoverMsg{Dead: 2, Heir: 0}
		roundTrip(t, "takeover", m, msgTakeover, m.encode(), decodeTakeover)
	})
	t.Run("doneInfo", func(t *testing.T) {
		m := doneInfoMsg{JSON: []byte(`{"rank":1}`)} // a rank that ran nothing
		roundTrip(t, "doneInfo", m, msgDoneInfo, m.encode(), decodeDoneInfo)
		m.Spans = []trace.Span{{Seq: 0, Worker: 1, Start: 5, End: 40}, {Seq: math.MaxUint32, Worker: 0, Start: -1, End: 1 << 40}}
		roundTrip(t, "doneInfo/spans", m, msgDoneInfo, m.encode(), decodeDoneInfo)
	})
	t.Run("error", func(t *testing.T) {
		m := errorMsg{Text: "netrun: rank 1: deadline exceeded"}
		roundTrip(t, "error", m, msgError, m.encode(), decodeError)
	})
}

// TestDecodersRejectHugeCounts feeds each slice-bearing decoder a
// count prefix far larger than the buffer: they must error without
// attempting the implied allocation.
func TestDecodersRejectHugeCounts(t *testing.T) {
	huge := appendU32(nil, math.MaxUint32)
	if _, err := decodeDone(huge); err == nil {
		t.Error("done: huge count decoded cleanly")
	}
	if _, err := decodeAck(huge); err == nil {
		t.Error("ack: huge count decoded cleanly")
	}
	if _, err := decodeWelcome(append(appendI64(nil, 2), huge...)); err == nil {
		t.Error("welcome: huge count decoded cleanly")
	}
	mig := appendString(nil, "X")
	for i := 0; i < len(ptg.Args{}); i++ {
		mig = appendI64(mig, 0)
	}
	if _, err := decodeMigrate(append(mig, huge...)); err == nil {
		t.Error("migrate: huge count decoded cleanly")
	}
	if _, err := decodeDoneInfo(huge); err == nil {
		t.Error("doneInfo: huge length decoded cleanly")
	}
	if _, err := decodeDoneInfo(append(appendU32(nil, 0), huge...)); err == nil {
		t.Error("doneInfo: huge span count decoded cleanly")
	}
	// A tile header claiming 2^32-1 elements inside an activate body.
	act := appendString(nil, "GEMM")
	for i := 0; i < len(ptg.Args{}); i++ {
		act = appendI64(act, 0)
	}
	act = appendI64(act, 0)    // flow
	act = append(act, payTile) // payload kind
	for i := 0; i < 4; i++ {   // dims
		act = appendI64(act, 1<<30)
	}
	act = append(act, huge...) // element count
	if _, err := decodeActivate(act); err == nil {
		t.Error("activate: huge tile decoded cleanly")
	}
}

// FuzzDecodeFrame holds the frame decoder to its contract: for any
// input it returns a frame, pending, or an error — it never panics,
// and whatever it consumes must re-encode to the same bytes.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(sealFrame(helloMsg{From: 0}.encode(), 1))
	f.Add(sealFrame(ackMsg{IDs: []uint64{7, 9, 8}}.encode(), 0))
	f.Add(rawFrame(msgAck, 0, false, appendU32(nil, math.MaxUint32))) // count far past the body
	act, _ := activateMsg{Class: "STEP", Args: ptg.A2(1, 2), Flow: 0, Payload: tile(1)}.encode()
	f.Add(sealFrame(act, 3))
	for _, p := range []*tensor.Tile4{panelTile(tensor.PanelA, 8, 6), panelTile(tensor.PanelB, 16, 7)} {
		act, _ := activateMsg{Class: "GEMM", Args: ptg.A2(3, 4), Flow: 1, Payload: p}.encode()
		f.Add(sealFrame(act, 10))
	}
	f.Add(sealFrame(doneMsg{Seqs: []int{1, 2, 1 << 40}}.encode(), 4))
	mig, _ := migrateMsg{Class: "DFILL", Args: ptg.A2(5, 6), Ins: []migratePayload{{Flow: 1, Payload: tile(2)}, {Flow: 2}}}.encode()
	f.Add(rawFrame(msgMigrate, 6, true, mig[frameHeaderLen:]))
	f.Add(sealFrame(getRespMsg{ReqID: 5}.encode(), 8))
	f.Add([]byte{'P', 'R', wireVersion, msgMax, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{'P', 'R', 1, msgHello}) // a v1 peer
	f.Add([]byte("not a frame at all, definitely longer than a header"))
	f.Add(sealFrame(doneInfoMsg{JSON: []byte(`{}`), Spans: []trace.Span{{Seq: 3, Worker: 1, Start: 2, End: 9}}}.encode(), 9))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := decodeFrame(data)
		switch {
		case err != nil:
			if n != 0 {
				t.Fatalf("error with %d bytes consumed", n)
			}
		case n == 0:
			// Pending: a longer read may complete it. Nothing to check.
		default:
			if n < frameHeaderLen || n > len(data) {
				t.Fatalf("consumed %d of %d bytes", n, len(data))
			}
			if fr.typ == 0 || fr.typ >= msgMax {
				t.Fatalf("decoded invalid type %d", fr.typ)
			}
			re := rawFrame(fr.typ, fr.id, fr.suppressAck, fr.body)
			if !bytes.Equal(re, data[:n]) {
				t.Fatal("re-encode disagrees with consumed bytes")
			}
			// Body decoders must also never panic on arbitrary bodies.
			decodeBody(fr)
		}
		// readFrame over the same bytes must agree: frame or error,
		// never a panic or a hang (the reader is finite).
		rf, rerr := readFrame(bytes.NewReader(data))
		if err == nil && n > 0 && rerr == nil {
			if rf.typ != fr.typ || rf.id != fr.id || !bytes.Equal(rf.body, fr.body) {
				t.Fatal("readFrame disagrees with decodeFrame")
			}
		}
	})
}

// decodeBody routes a fuzzed frame body through its message decoder,
// ignoring errors: the property under test is "no panic, no runaway
// allocation", which the Go fuzzer enforces via crash and OOM.
func decodeBody(fr frame) {
	switch fr.typ {
	case msgHello:
		_, _ = decodeHello(fr.body)
	case msgAck:
		_, _ = decodeAck(fr.body)
	case msgRegister:
		_, _ = decodeRegister(fr.body)
	case msgWelcome:
		_, _ = decodeWelcome(fr.body)
	case msgActivate:
		_, _ = decodeActivate(fr.body)
	case msgDone:
		_, _ = decodeDone(fr.body)
	case msgStatus:
		_, _ = decodeStatus(fr.body)
	case msgAccOrdered:
		_, _ = decodeAccOrdered(fr.body)
	case msgGetReq:
		_, _ = decodeGet(fr.body)
	case msgGetResp:
		_, _ = decodeGetResp(fr.body)
	case msgNxtValReq:
		_, _ = decodeNxtVal(fr.body)
	case msgNxtValResp:
		_, _ = decodeNxtValResp(fr.body)
	case msgStealReq, msgStealProbe, msgStealNone:
		_, _ = decodeSteal(fr.body)
	case msgMigrate:
		_, _ = decodeMigrate(fr.body)
	case msgTakeover:
		_, _ = decodeTakeover(fr.body)
	case msgFlushAck:
		_, _ = decodeFlushAck(fr.body)
	case msgDoneInfo:
		_, _ = decodeDoneInfo(fr.body)
	case msgError:
		_, _ = decodeError(fr.body)
	}
}

// bigTile is the benchmark workload's dominant payload: a 12^4 tile.
func bigTile() *tensor.Tile4 {
	t := tensor.NewTile4(12, 12, 12, 12)
	for i := range t.Data {
		t.Data[i] = 0.5 + float64(i)*0.001953125
	}
	return t
}

// oddTile is a tile whose floats exercise every byte of the encoding:
// signed zero, infinities, a NaN with a payload, a denormal.
func oddTile() *tensor.Tile4 {
	t := tensor.NewTile4(2, 2, 2, 1)
	copy(t.Data, []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8_0000_dead_beef), 5e-324, -1.0 / 3, math.MaxFloat64, 1})
	return t
}

// TestBorrowedFrameIsTheSameBytes holds sending by reference to its one
// promise: head and tail back to back are, byte for byte, the frame the
// copying encode builds for the same message — so everything the decoder
// tests and the fuzz corpus establish about those bytes covers a
// borrowed frame too. Payloads with nothing to borrow report so.
func TestBorrowedFrameIsTheSameBytes(t *testing.T) {
	for _, tl := range []*tensor.Tile4{tile(2.25), bigTile(), oddTile(), panelTile(tensor.PanelB, 16, 8)} {
		m := activateMsg{Class: "GEMM", Args: ptg.A3(4, -1, 9), Flow: 2, Payload: tl}
		want, err := m.encode()
		if err != nil {
			t.Fatal(err)
		}
		f, ok := m.encodeRef()
		if !ok {
			if hostLittleEndian {
				t.Fatal("a tile activation could not be sent by reference")
			}
			continue
		}
		if len(f.head) != cap(f.head) || len(f.head) != len(want)-8*len(tl.Data) {
			t.Errorf("head is %d bytes (cap %d), want the frame minus its %d floats: %d",
				len(f.head), cap(f.head), len(tl.Data), len(want)-8*len(tl.Data))
		}
		if &f.tail[0] != (*byte)(unsafe.Pointer(&tl.Data[0])) {
			t.Error("tail is a copy of the tile, not the tile")
		}
		f.seal(7)
		if !bytes.Equal(f.bytes(), sealFrame(want, 7)) {
			t.Error("borrowed frame differs from the copying encode of the same message")
		}
		setAckSuppress(f.head, true)
		setAckSuppress(want, true)
		if !bytes.Equal(f.bytes(), want) {
			t.Error("borrowed frame differs once the ack-suppress bit is set")
		}
	}
	for _, p := range []any{nil, 7, 2.5, ptg.NewBuffer{Bytes: 64}, (*tensor.Tile4)(nil), &tensor.Tile4{}} {
		if _, ok := (activateMsg{Class: "GEMM", Payload: p}).encodeRef(); ok {
			t.Errorf("payload %#v was sent by reference", p)
		}
	}
}

// TestFloatPathsAgree pins the block copy a little-endian host uses for
// a tile's floats to the element-by-element loop every host can run.
func TestFloatPathsAgree(t *testing.T) {
	for _, tl := range []*tensor.Tile4{tile(0.5), bigTile(), oddTile()} {
		n := len(tl.Data)
		fast, slow := make([]byte, 8*n), make([]byte, 8*n)
		putFloats(fast, tl.Data)
		putFloatsPortable(slow, tl.Data)
		if !bytes.Equal(fast, slow) {
			t.Fatal("putFloats and putFloatsPortable encode differently")
		}
		a, b := make([]float64, n), make([]float64, n)
		getFloats(a, slow)
		getFloatsPortable(b, slow)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) || math.Float64bits(a[i]) != math.Float64bits(tl.Data[i]) {
				t.Fatalf("element %d decodes to %x / %x, want %x", i,
					math.Float64bits(a[i]), math.Float64bits(b[i]), math.Float64bits(tl.Data[i]))
			}
		}
	}
}

// TestTileCodecAllocs pins the tile data path's allocations. The copying
// encode builds exactly one buffer (header, body and floats); encoding
// by reference builds only the head; and decoding an activation draws
// the tile from the pool, so once a returned tile is there to reuse it
// allocates no tile storage at all.
func TestTileCodecAllocs(t *testing.T) {
	m := activateMsg{Class: "GEMM", Args: ptg.A3(1, 2, 3), Flow: 1, Payload: bigTile()}
	var f []byte
	if n := testing.AllocsPerRun(20, func() { f, _ = m.encode() }); n != 1 {
		t.Errorf("encoding a tile activation took %v allocations, want 1", n)
	}
	if hostLittleEndian {
		var ref outFrame
		if n := testing.AllocsPerRun(20, func() { ref, _ = m.encodeRef() }); n > 2 {
			t.Errorf("encoding a tile activation by reference took %v allocations, want at most 2", n)
		}
		if len(ref.head) > 128 {
			t.Errorf("a borrowed frame's head is %d bytes", len(ref.head))
		}
	}
	body := sealFrame(f, 1)[frameHeaderLen:]
	out, err := decodeActivate(body)
	if err != nil || !reflect.DeepEqual(out, m) {
		t.Fatalf("tile activation changed in the round trip: %v", err)
	}
	if raceEnabled {
		return // sync.Pool drops items at random under the race detector
	}
	decodeAndReturn := func() {
		out, _ := decodeActivate(body)
		tensor.PutTile4(out.Payload.(*tensor.Tile4))
	}
	decodeAndReturn() // warm the pool
	if n := testing.AllocsPerRun(20, decodeAndReturn); n > 2 {
		t.Errorf("decoding a tile activation took %v allocations, want at most 2", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 20
	for i := 0; i < rounds; i++ {
		decodeAndReturn()
	}
	runtime.ReadMemStats(&after)
	// A garbage collection in the window may empty the pool once; twenty
	// fresh tiles would be 3.3 MB.
	if got := (after.TotalAlloc - before.TotalAlloc) / rounds; got > 16<<10 {
		t.Errorf("decoding into a warm pool allocated %d B per tile of %d B", got, 8*len(out.Payload.(*tensor.Tile4).Data))
	}
}

// BenchmarkWireTile is the copying codec's own number: one 12^4-tile
// activation encoded into its frame and decoded back out of it into a
// pooled tile, in MB/s of frame bytes and allocations per round trip.
// BenchmarkActivateRoundTrip is the by-reference path, sockets included.
func BenchmarkWireTile(b *testing.B) {
	m := activateMsg{Class: "GEMM", Args: ptg.A3(1, 2, 3), Flow: 1, Payload: bigTile()}
	f, err := m.encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(f)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _ := m.encode()
		fr, _, err := decodeFrame(sealFrame(f, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		out, err := decodeActivate(fr.body)
		if err != nil {
			b.Fatal(err)
		}
		tensor.PutTile4(out.Payload.(*tensor.Tile4))
	}
}
