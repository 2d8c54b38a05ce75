package netrun

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"unsafe"

	"parsec/internal/ptg"
	"parsec/internal/tensor"
	"parsec/internal/trace"
)

// Wire protocol (version 9): every frame is
//
//	magic(2) version(1) type(1) id(8, LE) bodyLen(4, LE) body
//
// The id is the sender-assigned reliability sequence number that msgAck
// bodies list; control frames that need no ack (hello, ack) carry id 0.
// Frames are self-delimiting, so a stream reader never needs lookahead,
// and a decoder must reject malformed input (bad magic, unknown version,
// oversized length, truncated body) with an error, never a panic — the
// fuzz target in wire_test.go holds it to that.
//
// A frame is built exactly once: every message's encode sizes its body
// up front, newFrame provides header and body as one buffer, the body
// is appended in a single pass (a tile's floats by one bulk copy), and
// the channel stamps the id and length when it takes the frame. That
// buffer is what the socket write reads and what a redial resends,
// unchanged. The one frame that is not a single buffer is a tile
// activation sent by reference (outFrame): its floats are never copied
// into a frame at all, and go to the socket from the tile's own storage
// behind the head. The bytes on the wire are the same either way.

const (
	wireMagic0 = 'P'
	wireMagic1 = 'R' // "PaRSEC reproduction"
	// wireVersion 3 added a tile payload's layout (DESIGN.md §12): a
	// born-packed input block crosses ranks in its panel form. Version 4
	// dropped the inter-rank steal messages and the status heartbeat's
	// body. Version 5 added an activation's replica tag (activateMsg): an
	// input block crosses to a rank once, and later activations name it.
	// Version 6 dropped the GET and NXTVAL requests and their replies.
	// Version 7 dropped the ack-suppress bit: every data frame is acked.
	// Version 8 sends a done batch's sequence numbers as 32 bits, so a
	// full batch fits a pooled frame head. Version 9 dropped the flush
	// request and its ack (a job ends when its counted output is
	// complete), renumbering the message types after msgTakeover.
	wireVersion = 9

	frameHeaderLen = 2 + 1 + 1 + 8 + 4
	// maxBody caps a frame body: the largest legitimate payload is one
	// beta-carotene-scale tile (a few MB), so 256 MiB is generous and
	// still bounds what a corrupt length prefix can make a reader
	// allocate.
	maxBody = 256 << 20
)

// Message types.
const (
	msgHello byte = iota + 1
	msgAck
	msgRegister
	msgWelcome
	msgActivate
	msgDone
	msgStatus
	msgAccOrdered
	msgTakeover
	msgDoneInfo
	msgShutdown
	msgError
	msgMax // one past the last valid type
)

var (
	errBadMagic   = errors.New("netrun: bad frame magic")
	errBadVersion = errors.New("netrun: unsupported protocol version")
	errBadType    = errors.New("netrun: unknown message type")
	errOversized  = errors.New("netrun: frame body exceeds limit")
)

// frame is one decoded wire frame. A body handed out by a frameReader
// aliases its receive buffer and is valid only until the next read.
type frame struct {
	typ  byte
	id   uint64
	body []byte
}

// newFrame starts a frame of the given type with room for exactly
// bodyLen body bytes, so the appends that fill it never reallocate. A
// frame of at most headCap bytes is built in a head from the free list
// (takeHead); a larger one is allocated at its exact size. Until seal
// stamps the real length, the header's length field holds bodyLen: the
// size the encoder asked for, which the codec tests hold every encoder
// to.
func newFrame(typ byte, bodyLen int) []byte {
	var dst []byte
	if n := frameHeaderLen + bodyLen; n <= headCap {
		dst = takeHead()
	} else {
		dst = make([]byte, 0, n)
	}
	dst = appendHeader(dst, typ)
	binary.LittleEndian.PutUint32(dst[12:], uint32(bodyLen))
	return dst
}

// headCap is the capacity of a pooled frame head: the allocator's size
// class that a full done batch (doneFrameLen) fits. Heads are pooled by
// size alone. In a job the frames that fit are the payload-free ones:
// tag-only activations, the heads of activations whose tile goes by
// reference, done batches, control frames. A frame that copies a
// payload into its head (an accumulation, a copied tile) is larger in
// the benchmark's jobs and is allocated at its exact size: a free list
// refilled with those would hold the in-flight peak (DESIGN.md
// "Decided against"). The list itself never holds more than
// maxFreeHeads heads.
const headCap = 288

// doneFrameLen is a full done batch on the wire; a head must hold it.
const doneFrameLen = frameHeaderLen + 4 + 4*doneBatch

var _ [headCap - doneFrameLen]struct{} // compile-time: doneFrameLen <= headCap

// maxFreeHeads bounds the free list of heads (288 KB).
const maxFreeHeads = 1024

// heads is the process's free list of frame heads. A channel returns a
// head (putHead) once its frame is acknowledged and no write of it is in
// flight; see relChan.recycleLocked for who does it.
var heads struct {
	mu   sync.Mutex
	free []*[headCap]byte
}

// takeHead returns an empty buffer of capacity headCap, off the free
// list when it has one.
func takeHead() []byte {
	heads.mu.Lock()
	if n := len(heads.free); n > 0 {
		h := heads.free[n-1]
		heads.free = heads.free[:n-1]
		heads.mu.Unlock()
		return h[:0]
	}
	heads.mu.Unlock()
	return make([]byte, 0, headCap)
}

// putHead gives a head back to the free list, which keeps at most
// maxFreeHeads. A buffer of any other capacity is not a head and is left
// to the collector. The caller must be the head's last user.
func putHead(b []byte) {
	if cap(b) != headCap {
		return
	}
	heads.mu.Lock()
	if len(heads.free) < maxFreeHeads {
		heads.free = append(heads.free, (*[headCap]byte)(b[:headCap]))
	}
	heads.mu.Unlock()
}

// appendHeader appends the header of a frame of the given type, its id
// and body length zero until seal stamps them.
func appendHeader(dst []byte, typ byte) []byte {
	return append(dst, wireMagic0, wireMagic1, wireVersion, typ, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
}

// outFrame is one encoded frame as a channel carries it. head is the
// header and the body's leading bytes, a buffer the channel owns. tail,
// when set, is the rest of the body: a tile's floats, borrowed from the
// tile rather than copied (activateMsg.encodeRef), which therefore must
// not change while the channel can still write them — until the frame is
// acknowledged, and for as long as a recovering run retains it.
type outFrame struct{ head, tail []byte }

// size is the frame's length on the wire.
func (f outFrame) size() int { return len(f.head) + len(f.tail) }

// typ is the frame's message type.
func (f outFrame) typ() byte { return f.head[3] }

// seal stamps the reliability id and the body length into a frame whose
// body is complete.
func (f outFrame) seal(id uint64) {
	binary.LittleEndian.PutUint64(f.head[4:], id)
	binary.LittleEndian.PutUint32(f.head[12:], uint32(f.size()-frameHeaderLen))
}

// bytes returns the frame as one buffer, exactly as the socket sees it;
// a frame with a tail is copied.
func (f outFrame) bytes() []byte {
	if f.tail == nil {
		return f.head
	}
	return append(append(make([]byte, 0, f.size()), f.head...), f.tail...)
}

// sealFrame seals a single-buffer frame.
func sealFrame(f []byte, id uint64) []byte {
	outFrame{head: f}.seal(id)
	return f
}

// decodeHeader validates a frame header and returns the frame (body
// unset) with its body length.
func decodeHeader(hdr []byte) (frame, int, error) {
	if hdr[0] != wireMagic0 || hdr[1] != wireMagic1 {
		return frame{}, 0, errBadMagic
	}
	if hdr[2] != wireVersion {
		return frame{}, 0, fmt.Errorf("%w %d (this build speaks %d)", errBadVersion, hdr[2], wireVersion)
	}
	typ := hdr[3]
	if typ == 0 || typ >= msgMax {
		return frame{}, 0, fmt.Errorf("%w: %d", errBadType, typ)
	}
	n := binary.LittleEndian.Uint32(hdr[12:])
	if n > maxBody {
		return frame{}, 0, fmt.Errorf("%w: %d", errOversized, n)
	}
	return frame{typ: typ, id: binary.LittleEndian.Uint64(hdr[4:])}, int(n), nil
}

// frameReader reads frames off one connection. Headers and small frames
// come through a bufio.Reader, so a burst of them costs one read
// syscall; the bufio buffer is deliberately small, so a tile-sized body
// is read from the socket straight into the body buffer rather than
// copied through it. The reader owns the body buffer and reuses it from
// frame to frame: a decoder that keeps anything past the next read
// copies it out — a tile's floats go, in one copy, into the tile the
// consumer will read (decodePayload).
type frameReader struct {
	br   *bufio.Reader
	body []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 4096)}
}

// read returns the next frame; its body is valid until the next read.
func (r *frameReader) read() (frame, error) {
	hdr, err := r.br.Peek(frameHeaderLen)
	if err != nil {
		return frame{}, err
	}
	f, n, err := decodeHeader(hdr)
	if err != nil {
		return frame{}, err
	}
	r.br.Discard(frameHeaderLen)
	if cap(r.body) < n {
		r.body = make([]byte, n)
	}
	f.body = r.body[:n]
	if _, err := io.ReadFull(r.br, f.body); err != nil {
		return frame{}, err
	}
	return f, nil
}

// wouldBlock reports whether the next read has to wait on the socket
// for its header: the end of a read burst.
func (r *frameReader) wouldBlock() bool { return r.br.Buffered() < frameHeaderLen }

// ---- body encoding primitives ----
//
// Bodies are concatenations of fixed-width little-endian integers,
// IEEE float64 bits, and u32-length-prefixed byte strings. Encoders
// append into a frame newFrame sized for them. Decoders consume via a
// cursor that records the first error and returns zero values
// afterwards, so message decoders stay linear and cannot panic on
// truncated input.

func appendU32(dst []byte, v uint32) []byte  { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte  { return binary.LittleEndian.AppendUint64(dst, v) }
func appendI64(dst []byte, v int64) []byte   { return appendU64(dst, uint64(v)) }
func appendF64(dst []byte, v float64) []byte { return appendU64(dst, math.Float64bits(v)) }

func appendString(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// strSize is the encoded size of a string.
func strSize(s string) int { return 4 + len(s) }

type cursor struct {
	buf []byte
	err error
}

func (c *cursor) fail() {
	if c.err == nil {
		c.err = errors.New("netrun: truncated message body")
	}
}

func (c *cursor) u32() uint32 {
	if c.err != nil || len(c.buf) < 4 {
		c.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(c.buf)
	c.buf = c.buf[4:]
	return v
}

func (c *cursor) u64() uint64 {
	if c.err != nil || len(c.buf) < 8 {
		c.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(c.buf)
	c.buf = c.buf[8:]
	return v
}

func (c *cursor) u8() byte {
	if c.err != nil || len(c.buf) < 1 {
		c.fail()
		return 0
	}
	v := c.buf[0]
	c.buf = c.buf[1:]
	return v
}

func (c *cursor) i64() int64   { return int64(c.u64()) }
func (c *cursor) int() int     { return int(c.i64()) }
func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *cursor) bytes() []byte {
	n := c.u32()
	if c.err != nil || uint64(n) > uint64(len(c.buf)) {
		c.fail()
		return nil
	}
	b := c.buf[:n:n]
	c.buf = c.buf[n:]
	return b
}

func (c *cursor) str() string { return string(c.bytes()) }

// layout reads a tile's layout: its kind byte and strip-width byte.
func (c *cursor) layout() tensor.Layout {
	if c.err != nil || len(c.buf) < 2 {
		c.fail()
		return tensor.Layout{}
	}
	l := tensor.Layout{Kind: tensor.LayoutKind(c.buf[0]), Strip: c.buf[1]}
	c.buf = c.buf[2:]
	return l
}

// name reads a string that recurs from frame to frame — a task class,
// an array name — through the intern table, so it costs no allocation.
func (c *cursor) name() string { return intern(c.bytes()) }

// interned holds the recurring names bodies carry. It is bounded, since
// the names come off the wire: long ones, and any past the first 256,
// are simply allocated.
var interned = struct {
	sync.RWMutex
	m map[string]string
}{m: make(map[string]string)}

func intern(b []byte) string {
	interned.RLock()
	s, ok := interned.m[string(b)] // lookup by converted key does not allocate
	interned.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	interned.Lock()
	if len(s) <= 64 && len(interned.m) < 256 {
		interned.m[s] = s
	}
	interned.Unlock()
	return s
}

// count reads a u32 element count and checks that count elements of at
// least elemSize bytes each can still follow, so a corrupt count never
// sizes an allocation.
func (c *cursor) count(elemSize int) int {
	n := c.u32()
	if c.err != nil || uint64(n) > uint64(len(c.buf)/elemSize) {
		c.fail()
		return 0
	}
	return int(n)
}

func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if len(c.buf) != 0 {
		return fmt.Errorf("netrun: %d trailing bytes in message body", len(c.buf))
	}
	return nil
}

// ---- payload encoding ----
//
// Task-sourced flow payloads are one of a small closed set of Go values
// (see ptg bodies): nil, *tensor.Tile4, ptg.NewBuffer, int, float64.

const (
	payNil byte = iota
	payTile
	payNewBuffer
	payInt
	payFloat
)

// tileHeadSize is the encoded size of everything a tile payload carries
// ahead of its floats: kind, four extents, layout (kind and strip width),
// element count. The element count is the tile's storage length, so a
// panel's floats include its strip padding.
const tileHeadSize = 1 + 8*4 + 2 + 4

// payloadSize returns a payload's encoded size, rejecting every value
// appendPayload cannot encode.
func payloadSize(p any) (int, error) {
	switch v := p.(type) {
	case nil:
		return 1, nil
	case *tensor.Tile4:
		if v == nil { // a typed nil would otherwise masquerade as a tile
			return 0, errors.New("netrun: cannot encode nil tile payload")
		}
		return tileHeadSize + 8*len(v.Data), nil
	case ptg.NewBuffer, int, float64:
		return 1 + 8, nil
	default:
		return 0, fmt.Errorf("netrun: cannot encode payload of type %T", p)
	}
}

// appendTileHead encodes a tile payload up to, not including, its
// floats.
func appendTileHead(dst []byte, t *tensor.Tile4) []byte {
	dst = append(dst, payTile)
	for _, d := range t.Dim {
		dst = appendI64(dst, int64(d))
	}
	dst = append(dst, byte(t.Layout.Kind), t.Layout.Strip)
	return appendU32(dst, uint32(len(t.Data)))
}

// appendPayload encodes a payload payloadSize has accepted.
func appendPayload(dst []byte, p any) []byte {
	switch v := p.(type) {
	case nil:
		dst = append(dst, payNil)
	case *tensor.Tile4:
		dst = appendTileHead(dst, v)
		n := len(dst)
		dst = slices.Grow(dst, 8*len(v.Data))[:n+8*len(v.Data)]
		putFloats(dst[n:], v.Data)
	case ptg.NewBuffer:
		dst = appendI64(append(dst, payNewBuffer), v.Bytes)
	case int:
		dst = appendI64(append(dst, payInt), int64(v))
	case float64:
		dst = appendF64(append(dst, payFloat), v)
	}
	return dst
}

// hostLittleEndian reports that a float64 in this process's memory is
// already its wire encoding (IEEE bits, little-endian), so a tile's
// floats move as one block copy — or, sent by reference, as no copy.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// floatBytes returns the memory of data as bytes, without copying. Only
// on a little-endian host are those the wire's bytes.
func floatBytes(data []float64) []byte {
	if len(data) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), 8*len(data))
}

// putFloats encodes src into dst, which holds exactly 8*len(src) bytes.
func putFloats(dst []byte, src []float64) {
	if hostLittleEndian {
		copy(dst, floatBytes(src))
		return
	}
	putFloatsPortable(dst, src)
}

// putFloatsPortable is putFloats for any byte order, element by element.
func putFloatsPortable(dst []byte, src []float64) {
	for i, x := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
	}
}

// getFloats decodes 8*len(dst) bytes of src into dst.
func getFloats(dst []float64, src []byte) {
	if hostLittleEndian {
		copy(floatBytes(dst), src)
		return
	}
	getFloatsPortable(dst, src)
}

// getFloatsPortable is getFloats for any byte order.
func getFloatsPortable(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// decodePayload decodes one payload. A tile is sized from its frame:
// extents and layout, whose storage length the element count must be.
// With pooled set it lands in storage drawn from the tile pool
// (tensor.GetTile4Layout), which whoever
// receives the payload must see returned; otherwise it is allocated and
// left to the collector.
func decodePayload(c *cursor, pooled bool) any {
	if c.err != nil || len(c.buf) < 1 {
		c.fail()
		return nil
	}
	kind := c.buf[0]
	c.buf = c.buf[1:]
	switch kind {
	case payNil:
		return nil
	case payTile:
		var dim [4]int
		for i := range dim {
			dim[i] = c.int()
		}
		l := c.layout()
		n := c.count(8)
		if c.err != nil || dim[0] < 0 || dim[1] < 0 || dim[2] < 0 || dim[3] < 0 ||
			!l.Valid() || n != l.Len(dim) {
			c.fail()
			return nil
		}
		var t *tensor.Tile4
		if pooled {
			t = tensor.GetTile4Layout(dim, l)
		} else {
			t = &tensor.Tile4{Dim: dim, Layout: l, Data: make([]float64, n)}
		}
		getFloats(t.Data, c.buf[:8*n])
		c.buf = c.buf[8*n:]
		return t
	case payNewBuffer:
		return ptg.NewBuffer{Bytes: c.i64()}
	case payInt:
		return int(c.i64())
	case payFloat:
		return c.f64()
	default:
		c.fail()
		return nil
	}
}

// ---- message bodies ----
//
// Every encode returns a complete frame (header plus body) ready for
// sealFrame; every decoder takes a frame body.

const argsSize = 8 * len(ptg.Args{})

func appendArgs(dst []byte, a ptg.Args) []byte {
	for _, v := range a {
		dst = appendI64(dst, int64(v))
	}
	return dst
}

func (c *cursor) args() (a ptg.Args) {
	for i := range a {
		a[i] = c.int()
	}
	return a
}

// helloMsg opens every outbound connection, naming the sender.
type helloMsg struct{ From int }

func (m helloMsg) encode() []byte { return appendI64(newFrame(msgHello, 8), int64(m.From)) }

func decodeHello(b []byte) (helloMsg, error) {
	c := cursor{buf: b}
	return helloMsg{From: c.int()}, c.done()
}

// ackMsg acknowledges one read burst: the ids of every frame in it. Each
// id is acknowledged on its own terms — a listed id settles that frame
// and nothing else.
type ackMsg struct{ IDs []uint64 }

func (m ackMsg) encode() []byte { return m.appendBody(newFrame(msgAck, 4+8*len(m.IDs))) }

// appendFrame is encode into the caller's buffer: it appends the frame
// to dst.
func (m ackMsg) appendFrame(dst []byte) []byte { return m.appendBody(appendHeader(dst, msgAck)) }

func (m ackMsg) appendBody(dst []byte) []byte {
	dst = appendU32(dst, uint32(len(m.IDs)))
	for _, id := range m.IDs {
		dst = appendU64(dst, id)
	}
	return dst
}

// decodeAck decodes an ack into ids' storage, growing it only when the
// ack lists more ids than it holds; pass nil for a fresh slice.
func decodeAck(b []byte, ids []uint64) (ackMsg, error) {
	c := &cursor{buf: b}
	n := c.count(8)
	m := ackMsg{IDs: slices.Grow(ids[:0], n)[:n]}
	for i := range m.IDs {
		m.IDs[i] = c.u64()
	}
	return m, c.done()
}

// registerMsg announces a worker's rank and listen address to the
// coordinator.
type registerMsg struct {
	Rank int
	Addr string
}

func (m registerMsg) encode() []byte {
	dst := newFrame(msgRegister, 8+strSize(m.Addr))
	return appendString(appendI64(dst, int64(m.Rank)), m.Addr)
}

func decodeRegister(b []byte) (registerMsg, error) {
	c := cursor{buf: b}
	return registerMsg{Rank: c.int(), Addr: c.str()}, c.done()
}

// welcomeMsg is the coordinator's go signal: the full peer address map.
type welcomeMsg struct {
	Ranks int
	Addrs []string // indexed by rank
}

func (m welcomeMsg) encode() []byte {
	size := 8 + 4
	for _, a := range m.Addrs {
		size += strSize(a)
	}
	dst := appendI64(newFrame(msgWelcome, size), int64(m.Ranks))
	dst = appendU32(dst, uint32(len(m.Addrs)))
	for _, a := range m.Addrs {
		dst = appendString(dst, a)
	}
	return dst
}

func decodeWelcome(b []byte) (welcomeMsg, error) {
	c := &cursor{buf: b}
	m := welcomeMsg{Ranks: c.int()}
	for n := c.count(4); n > 0 && c.err == nil; n-- {
		m.Addrs = append(m.Addrs, c.str())
	}
	return m, c.done()
}

// activateMsg is the one-sided active message of the dataflow: "your
// task toRef's input flow is satisfied with this payload". The receiver
// counts it against its rank-local dependency tracker.
//
// A READ's activation is tagged with the input block it carries: tensor
// Replica, block number Block in that tensor's table (tce.InputTable).
// The first activation of a block to a rank carries the tile and the
// tag, and the receiver adopts the tile into its input replica; every
// later one carries the tag alone (Payload nil), and the receiver takes
// the block from its replica. An untagged activation has Replica "".
type activateMsg struct {
	Class   string
	Args    ptg.Args
	Flow    int
	Replica string
	Block   int
	Payload any
}

// Replica tag kinds, the byte after an activation's flow.
const (
	tagNone byte = iota // no tag; a payload follows
	tagTile             // tag, then the block's tile
	tagOnly             // tag alone: the receiver holds the block
)

// tagAlone reports whether the activation names its block without
// carrying it.
func (m activateMsg) tagAlone() bool { return m.Replica != "" && m.Payload == nil }

// headSize is the encoded size of everything ahead of the payload.
func (m activateMsg) headSize() int {
	n := strSize(m.Class) + argsSize + 8 + 1
	if m.Replica != "" {
		n += strSize(m.Replica) + 8
	}
	return n
}

// appendHead encodes everything ahead of the payload.
func (m activateMsg) appendHead(dst []byte) []byte {
	dst = appendString(dst, m.Class)
	dst = appendI64(appendArgs(dst, m.Args), int64(m.Flow))
	switch {
	case m.Replica == "":
		return append(dst, tagNone)
	case m.tagAlone():
		dst = append(dst, tagOnly)
	default:
		dst = append(dst, tagTile)
	}
	return appendI64(appendString(dst, m.Replica), int64(m.Block))
}

func (m activateMsg) encode() ([]byte, error) {
	if m.tagAlone() {
		return m.appendHead(newFrame(msgActivate, m.headSize())), nil
	}
	if _, isTile := m.Payload.(*tensor.Tile4); m.Replica != "" && !isTile {
		return nil, errors.New("netrun: a replica tag carries a tile or nothing")
	}
	psize, err := payloadSize(m.Payload)
	if err != nil {
		return nil, err
	}
	return appendPayload(m.appendHead(newFrame(msgActivate, m.headSize()+psize)), m.Payload), nil
}

// encodeRef is encode for a tile payload, minus the copy: the head
// stops after the tile's element count and the tail is the tile's floats
// where they lie, so head and tail written back to back are encode's
// bytes exactly. ok is false — use encode — when the payload is not a
// tile, or the host's floats are not in wire order.
func (m activateMsg) encodeRef() (f outFrame, ok bool) {
	t, isTile := m.Payload.(*tensor.Tile4)
	if !isTile || t == nil || len(t.Data) == 0 || !hostLittleEndian {
		return outFrame{}, false
	}
	dst := m.appendHead(newFrame(msgActivate, m.headSize()+tileHeadSize))
	return outFrame{head: appendTileHead(dst, t), tail: floatBytes(t.Data)}, true
}

// decodeActivate decodes an activation; a tile payload comes out of the
// tile pool, the caller's to return (engine.handleActivate). It checks
// the tag's shape only: whether the named block exists, and whether a
// tile fits it, is the receiving rank's to judge.
func decodeActivate(b []byte) (activateMsg, error) {
	c := &cursor{buf: b}
	m := activateMsg{Class: c.name(), Args: c.args(), Flow: c.int()}
	var err error
	switch tag := c.u8(); tag {
	case tagNone:
		m.Payload = decodePayload(c, true)
	case tagTile, tagOnly:
		m.Replica, m.Block = c.name(), c.int()
		if tag == tagTile {
			m.Payload = decodePayload(c, true)
		}
		if _, isTile := m.Payload.(*tensor.Tile4); c.err == nil && (m.Replica == "" || tag == tagTile && !isTile) {
			err = errors.New("netrun: a replica tag names no tensor, or carries something other than a tile")
		}
	default:
		err = fmt.Errorf("netrun: activation tag kind %d", tag)
	}
	if err == nil {
		err = c.done()
	}
	if err != nil {
		if t, ok := m.Payload.(*tensor.Tile4); ok {
			tensor.PutTile4(t)
		}
		return activateMsg{}, err
	}
	return m, nil
}

// doneMsg reports a batch of completed instance sequence numbers to the
// coordinator's termination bitset. A sequence number is 32 bits on the
// wire, as in a trace span.
type doneMsg struct{ Seqs []int }

func (m doneMsg) encode() []byte {
	dst := appendU32(newFrame(msgDone, 4+4*len(m.Seqs)), uint32(len(m.Seqs)))
	for _, s := range m.Seqs {
		dst = appendU32(dst, uint32(s))
	}
	return dst
}

// decodeDone decodes a done batch into seqs' storage, growing it only
// when the batch is longer than it holds; pass nil for a fresh slice.
func decodeDone(b []byte, seqs []int) (doneMsg, error) {
	c := &cursor{buf: b}
	n := c.count(4)
	m := doneMsg{Seqs: slices.Grow(seqs[:0], n)[:n]}
	for i := range m.Seqs {
		m.Seqs[i] = int(c.u32())
	}
	return m, c.done()
}

// accOrderedMsg ships one ordered accumulation to the GA server. The
// decoded tile is pooled: the GA server's store gives it back once its
// block is folded.
type accOrderedMsg struct {
	Name        string
	Key         tensor.BlockKey
	Tag, Lo, Hi int
	Scale       float64
	Tile        *tensor.Tile4
}

func (m accOrderedMsg) encode() ([]byte, error) {
	psize, err := payloadSize(m.Tile)
	if err != nil {
		return nil, err
	}
	dst := appendString(newFrame(msgAccOrdered, strSize(m.Name)+8*len(m.Key)+3*8+8+psize), m.Name)
	for _, k := range m.Key {
		dst = appendI64(dst, int64(k))
	}
	dst = appendI64(dst, int64(m.Tag))
	dst = appendI64(dst, int64(m.Lo))
	dst = appendI64(dst, int64(m.Hi))
	dst = appendF64(dst, m.Scale)
	return appendPayload(dst, m.Tile), nil
}

func decodeAccOrdered(b []byte) (accOrderedMsg, error) {
	c := &cursor{buf: b}
	m := accOrderedMsg{Name: c.name()}
	for i := range m.Key {
		m.Key[i] = c.int()
	}
	m.Tag = c.int()
	m.Lo = c.int()
	m.Hi = c.int()
	m.Scale = c.f64()
	p := decodePayload(c, true)
	t, ok := p.(*tensor.Tile4)
	if err := c.done(); err != nil {
		tensor.PutTile4(t)
		return m, err
	}
	if !ok {
		return m, errors.New("netrun: AccOrdered payload is not a tile")
	}
	m.Tile = t
	return m, nil
}

// takeoverMsg announces that a dead rank's subgraph is reassigned to an
// heir: live ranks replay their retained activations to the heir and
// re-route future traffic for the dead rank there.
type takeoverMsg struct{ Dead, Heir int }

func (m takeoverMsg) encode() []byte {
	return appendI64(appendI64(newFrame(msgTakeover, 16), int64(m.Dead)), int64(m.Heir))
}

func decodeTakeover(b []byte) (takeoverMsg, error) {
	c := cursor{buf: b}
	return takeoverMsg{Dead: c.int(), Heir: c.int()}, c.done()
}

// doneInfoMsg is a worker's final report. The counters are JSON (the
// schema is internal to one build, not a wire contract, so JSON's
// flexibility beats hand-rolled encoding there); the spans — one per
// executed task, which is nearly all of the report — are a fixed-width
// binary section, so a rank formats no text per task and the
// coordinator parses none.
type doneInfoMsg struct {
	JSON  []byte
	Spans []trace.Span
}

// spanSize is one encoded trace.Span: seq(4) worker(4) start(8) end(8).
const spanSize = 4 + 4 + 8 + 8

func (m doneInfoMsg) encode() []byte {
	dst := appendU32(newFrame(msgDoneInfo, 4+len(m.JSON)+4+spanSize*len(m.Spans)), uint32(len(m.JSON)))
	dst = appendU32(append(dst, m.JSON...), uint32(len(m.Spans)))
	for _, sp := range m.Spans {
		dst = appendU32(appendU32(dst, sp.Seq), sp.Worker)
		dst = appendI64(appendI64(dst, sp.Start), sp.End)
	}
	return dst
}

func decodeDoneInfo(b []byte) (doneInfoMsg, error) {
	c := &cursor{buf: b}
	m := doneInfoMsg{JSON: c.bytes()}
	if n := c.count(spanSize); n > 0 {
		m.Spans = make([]trace.Span, n)
		for i := range m.Spans {
			m.Spans[i] = trace.Span{Seq: c.u32(), Worker: c.u32(), Start: c.i64(), End: c.i64()}
		}
	}
	return m, c.done()
}

// errorMsg reports a fatal worker-side failure to the coordinator.
type errorMsg struct{ Text string }

func (m errorMsg) encode() []byte { return appendString(newFrame(msgError, strSize(m.Text)), m.Text) }

func decodeError(b []byte) (errorMsg, error) {
	c := cursor{buf: b}
	return errorMsg{Text: c.str()}, c.done()
}
