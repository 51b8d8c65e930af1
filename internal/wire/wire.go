// Package wire is the binary protocol of the remote reuse-cache tier
// (crcserve): a compact length-prefixed frame codec carrying segment
// registrations, probes, records, flushes and statistics between a
// client fleet and one shared reuse-table server.
//
// Every message is one Frame. Requests and responses share the layout;
// FlagResp distinguishes them, and Seq matches a response to its request
// so many requests can be pipelined on one connection without waiting.
// The encoding is fixed little-endian with explicit length prefixes —
// no reflection, no allocation beyond the payload slices — and every
// variable-length field is bounds-checked on decode so a corrupt or
// hostile frame errors out instead of panicking or over-allocating.
//
// The Cost field carries the paper's cost-model quantities over the
// wire: on a PUT it is the client-measured computation cost C of the
// recorded segment in nanoseconds; on a GET it is the client's smoothed
// round-trip estimate, which the server folds into its measured lookup
// overhead O. Those two numbers, together with the server's own
// hit/miss counters (R), drive the online admission governor — the
// paper's formula 3, R·C − O > 0, evaluated live per segment.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Op identifies a frame's operation.
type Op uint8

// Frame operations.
const (
	// OpHello registers (or looks up) a named segment on the server.
	// Name carries the segment name; Vals carries [entries, lru,
	// outWords] — the requested table bound (0 = unbounded),
	// replacement policy and output width. A server preallocates a
	// bounded table and refuses a new segment whose entries would take
	// the total of all its segments past 2^20 (internal/reused).
	// The response's Seg is the server-assigned segment id.
	OpHello Op = iota + 1
	// OpGet probes the segment's reuse table with Key. Cost carries the
	// client's smoothed RTT estimate in nanoseconds (0 = unknown). The
	// response carries FlagHit and the stored Vals on a hit, FlagBypass
	// when the governor has turned the segment off.
	OpGet
	// OpPut records Vals as the outputs computed for Key. Cost carries
	// the client-measured computation cost C in nanoseconds. The
	// response acknowledges (FlagBypass when the segment is bypassed and
	// the record was dropped).
	OpPut
	// OpFlush empties the segment's table and zeroes its statistics.
	OpFlush
	// OpStats asks for the segment's live counters; the response's Vals
	// hold them in StatsVals order.
	OpStats
	// OpMGet probes many keys of one segment in a single frame: the
	// request's Items carry the keys, the response's Items carry each
	// probe's outcome (per-item FlagHit plus the stored Vals on a hit).
	// Cost carries the client RTT estimate, as on GET; the server
	// amortizes it across the batch when it charges overhead O. One MGET
	// costs one round trip however many concurrent misses it coalesces.
	OpMGet
	// OpMPut records many key→outputs pairs of one segment in a single
	// frame: the request's Items carry per-item Cost (the measured C of
	// that computation), Key and Vals. The response acknowledges the
	// whole batch (FlagBypass when the segment is bypassed and the
	// records were dropped); it carries no items.
	OpMPut
	opMax
)

var opNames = [...]string{"invalid", "HELLO", "GET", "PUT", "FLUSH", "STATS", "MGET", "MPUT"}

// Batch reports whether frames with this op carry the per-item section.
func (o Op) Batch() bool { return o == OpMGet || o == OpMPut }

// String returns the operation mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Frame flags.
const (
	// FlagResp marks a response frame.
	FlagResp uint8 = 1 << iota
	// FlagHit marks a GET response served from the table.
	FlagHit
	// FlagBypass marks a response for a segment the admission governor
	// has turned off: the client should compute locally and stop
	// sending PUTs until the segment is readmitted.
	FlagBypass
	// FlagErr marks an error response; Name carries the message.
	FlagErr
	// FlagTraced marks a frame carrying a TraceID: the encoding gains 8
	// bytes immediately after Cost. Untraced frames encode exactly as
	// before the flag existed, so the canonical form of pre-tracing
	// traffic is unchanged.
	FlagTraced
)

// Decode limits: a frame that claims more than these is corrupt (or
// hostile) and is rejected before any allocation is sized from it.
const (
	// MaxKey is the largest accepted key, in bytes.
	MaxKey = 1 << 20
	// MaxVals is the largest accepted output vector, in words.
	MaxVals = 1 << 16
	// MaxName is the largest accepted segment/error name, in bytes.
	MaxName = 1 << 10
	// MaxItems is the largest accepted batch, in items.
	MaxItems = 1 << 12
	// MaxFrame is the largest accepted payload, in bytes.
	MaxFrame = 1 << 24
)

// Frame is one protocol message. All operations share the layout;
// fields an operation does not use stay zero and cost nothing beyond
// their fixed header bytes.
type Frame struct {
	// Op is the operation.
	Op Op
	// Flags carries the Flag* bits.
	Flags uint8
	// Seg is the server-assigned segment id (assigned by HELLO).
	Seg uint32
	// Seq matches a response to its pipelined request.
	Seq uint64
	// Cost is a nanosecond quantity: C on PUT, the client RTT estimate
	// on GET (see the package comment).
	Cost uint64
	// TraceID stitches this request into a distributed trace (see
	// internal/obs). It is carried on the wire only when Flags has
	// FlagTraced set; otherwise it is zero and costs no bytes. Use
	// SetTrace to keep the field and the flag consistent.
	TraceID uint64
	// Name is the segment name (HELLO) or error text (FlagErr).
	Name string
	// Key is the input-pattern key bytes.
	Key []byte
	// Vals are output words (PUT/GET-hit) or counters (STATS, HELLO).
	Vals []uint64
	// Items is the batch section, present only on MGET/MPUT frames
	// (Op.Batch()); it is ignored by the encoder and cleared by the
	// decoder for every other op.
	Items []Item
}

// Item is one entry of a batch frame. On an MGET request only Key is
// set; on an MGET response Flags carries the per-item FlagHit and Vals
// the stored outputs. On an MPUT request Cost is the measured
// computation cost C of that item, in nanoseconds.
type Item struct {
	// Flags carries per-item Flag* bits (FlagHit on MGET responses).
	Flags uint8
	// Cost is the per-item nanosecond cost (C on MPUT items).
	Cost uint64
	// Key is the item's input-pattern key bytes.
	Key []byte
	// Vals are the item's output words.
	Vals []uint64
}

// SetTrace stores id and keeps FlagTraced in sync: a nonzero id sets
// the flag (the encoding gains the 8-byte TraceID section), zero clears
// both, so untraced frames keep the pre-tracing canonical encoding.
func (f *Frame) SetTrace(id uint64) {
	f.TraceID = id
	if id != 0 {
		f.Flags |= FlagTraced
	} else {
		f.Flags &^= FlagTraced
	}
}

// Err returns the error a FlagErr response carries, or nil.
func (f *Frame) Err() error {
	if f.Flags&FlagErr == 0 {
		return nil
	}
	return fmt.Errorf("%s: %s", f.Op, f.Name)
}

// StatsVals indexes into a STATS response's Vals.
const (
	StatsProbes = iota
	StatsHits
	StatsMisses
	StatsRecords
	StatsDistinct // keys stored since the last flush: resident plus evicted
	StatsResident
	StatsBypassed // requests answered with FlagBypass
	StatsState    // 0 = admitted, 1 = bypassed
	StatsR        // reuse rate R scaled by 1e6
	StatsC        // smoothed client-reported C, ns
	StatsO        // smoothed measured lookup+RTT overhead O, ns
	StatsLen      // number of counters
)

// Payload layout after the uint32 length prefix:
//
//	op      uint8
//	flags   uint8
//	seg     uint32
//	seq     uint64
//	cost    uint64
//	traceID uint64   — present only when flags has FlagTraced
//	nameLen uint16, name bytes
//	keyLen  uint32, key bytes
//	nvals   uint16, vals (uint64 each)
//
// Batch ops (MGET/MPUT) append one more section — absent for every
// other op, so pre-batch encodings remain canonical:
//
//	nitems  uint16, then per item:
//	  flags  uint8
//	  cost   uint64
//	  keyLen uint32, key bytes
//	  nvals  uint16, vals (uint64 each)
const headerBytes = 1 + 1 + 4 + 8 + 8

// itemHeadBytes is the fixed per-item prefix (flags + cost).
const itemHeadBytes = 1 + 8

var le = binary.LittleEndian

// Errors returned by the decoder.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrTruncated     = errors.New("wire: truncated frame")
	ErrBadOp         = errors.New("wire: unknown op")
	ErrFieldTooLarge = errors.New("wire: field exceeds its limit")
	ErrTrailing      = errors.New("wire: trailing bytes after frame")
)

// AppendFrame appends f's encoding — length prefix included — to buf
// and returns the extended slice.
func AppendFrame(buf []byte, f *Frame) []byte {
	payload := headerBytes + 2 + len(f.Name) + 4 + len(f.Key) + 2 + 8*len(f.Vals)
	if f.Flags&FlagTraced != 0 {
		payload += 8
	}
	if f.Op.Batch() {
		payload += 2
		for i := range f.Items {
			it := &f.Items[i]
			payload += itemHeadBytes + 4 + len(it.Key) + 2 + 8*len(it.Vals)
		}
	}
	buf = le.AppendUint32(buf, uint32(payload))
	buf = append(buf, byte(f.Op), f.Flags)
	buf = le.AppendUint32(buf, f.Seg)
	buf = le.AppendUint64(buf, f.Seq)
	buf = le.AppendUint64(buf, f.Cost)
	if f.Flags&FlagTraced != 0 {
		buf = le.AppendUint64(buf, f.TraceID)
	}
	buf = le.AppendUint16(buf, uint16(len(f.Name)))
	buf = append(buf, f.Name...)
	buf = le.AppendUint32(buf, uint32(len(f.Key)))
	buf = append(buf, f.Key...)
	buf = le.AppendUint16(buf, uint16(len(f.Vals)))
	for _, v := range f.Vals {
		buf = le.AppendUint64(buf, v)
	}
	if f.Op.Batch() {
		buf = le.AppendUint16(buf, uint16(len(f.Items)))
		for i := range f.Items {
			it := &f.Items[i]
			buf = append(buf, it.Flags)
			buf = le.AppendUint64(buf, it.Cost)
			buf = le.AppendUint32(buf, uint32(len(it.Key)))
			buf = append(buf, it.Key...)
			buf = le.AppendUint16(buf, uint16(len(it.Vals)))
			for _, v := range it.Vals {
				buf = le.AppendUint64(buf, v)
			}
		}
	}
	return buf
}

// DecodeFrame decodes one payload (the bytes after the length prefix)
// into f. The Name, Key and Vals fields are copied out of data, so the
// caller may reuse its buffer. Every length is validated before use;
// corrupt input returns an error, never a panic.
func DecodeFrame(data []byte, f *Frame) error {
	if len(data) > MaxFrame {
		return ErrFrameTooLarge
	}
	if len(data) < headerBytes {
		return ErrTruncated
	}
	op := Op(data[0])
	if op == 0 || op >= opMax {
		return fmt.Errorf("%w: %d", ErrBadOp, data[0])
	}
	f.Op = op
	f.Flags = data[1]
	f.Seg = le.Uint32(data[2:])
	f.Seq = le.Uint64(data[6:])
	f.Cost = le.Uint64(data[14:])
	rest := data[headerBytes:]

	if f.Flags&FlagTraced != 0 {
		if len(rest) < 8 {
			return ErrTruncated
		}
		f.TraceID = le.Uint64(rest)
		rest = rest[8:]
	} else {
		f.TraceID = 0
	}

	nameLen, rest, err := takeLen(rest, 2, MaxName)
	if err != nil {
		return err
	}
	f.Name = string(rest[:nameLen])
	rest = rest[nameLen:]

	keyLen, rest, err := takeLen(rest, 4, MaxKey)
	if err != nil {
		return err
	}
	f.Key = append(f.Key[:0], rest[:keyLen]...)
	if keyLen == 0 {
		f.Key = nil
	}
	rest = rest[keyLen:]

	nvals, rest, err := takeLen(rest, 2, MaxVals)
	if err != nil {
		return err
	}
	if len(rest) < 8*nvals {
		return ErrTruncated
	}
	if nvals == 0 {
		f.Vals = nil
	} else {
		if cap(f.Vals) < nvals {
			f.Vals = make([]uint64, nvals)
		}
		f.Vals = f.Vals[:nvals]
		for i := 0; i < nvals; i++ {
			f.Vals[i] = le.Uint64(rest[8*i:])
		}
	}
	rest = rest[8*nvals:]

	if !op.Batch() {
		f.Items = nil
		if len(rest) != 0 {
			return ErrTrailing
		}
		return nil
	}

	nitems, rest, err := takeLen(rest, 2, MaxItems)
	if err != nil {
		return err
	}
	if nitems == 0 {
		f.Items = nil
	} else {
		if cap(f.Items) < nitems {
			// Carry forward the items already held so their Key/Vals
			// buffers stay reusable after the growth.
			grown := make([]Item, nitems)
			copy(grown, f.Items[:cap(f.Items)])
			f.Items = grown
		}
		f.Items = f.Items[:nitems]
	}
	for i := 0; i < nitems; i++ {
		rest, err = decodeItem(rest, &f.Items[i])
		if err != nil {
			return err
		}
	}
	if len(rest) != 0 {
		return ErrTrailing
	}
	return nil
}

// decodeItem decodes one batch item from the front of data, reusing
// its Key and Vals capacity, and returns the remaining bytes.
func decodeItem(data []byte, it *Item) ([]byte, error) {
	if len(data) < itemHeadBytes {
		return nil, ErrTruncated
	}
	it.Flags = data[0]
	it.Cost = le.Uint64(data[1:])
	rest := data[itemHeadBytes:]

	keyLen, rest, err := takeLen(rest, 4, MaxKey)
	if err != nil {
		return nil, err
	}
	it.Key = append(it.Key[:0], rest[:keyLen]...)
	if keyLen == 0 {
		it.Key = nil
	}
	rest = rest[keyLen:]

	nvals, rest, err := takeLen(rest, 2, MaxVals)
	if err != nil {
		return nil, err
	}
	if len(rest) < 8*nvals {
		return nil, ErrTruncated
	}
	if nvals == 0 {
		it.Vals = nil
	} else {
		if cap(it.Vals) < nvals {
			it.Vals = make([]uint64, nvals)
		}
		it.Vals = it.Vals[:nvals]
		for i := 0; i < nvals; i++ {
			it.Vals[i] = le.Uint64(rest[8*i:])
		}
	}
	return rest[8*nvals:], nil
}

// takeLen reads a width-byte little-endian length from the front of
// data, validates it against limit and the remaining bytes, and returns
// the length together with the slice after the prefix.
func takeLen(data []byte, width, limit int) (int, []byte, error) {
	if len(data) < width {
		return 0, nil, ErrTruncated
	}
	var n int
	switch width {
	case 2:
		n = int(le.Uint16(data))
	default:
		n = int(le.Uint32(data))
	}
	if n > limit {
		return 0, nil, fmt.Errorf("%w: %d > %d", ErrFieldTooLarge, n, limit)
	}
	rest := data[width:]
	if len(rest) < n {
		return 0, nil, ErrTruncated
	}
	return n, rest, nil
}

// Payload buffers are pooled in power-of-two size classes so the
// per-connection Readers of a churning client fleet reuse each other's
// buffers instead of each growing its own: a freshly accepted
// connection's first big frame is served from a previous connection's
// buffer. Within one Reader the buffer is still sticky — the pool is
// only consulted when the buffer must grow, and only exact
// class-capacity buffers are accepted back, so foreign slices cannot
// poison a class.
var bufClassSizes = [...]int{1 << 8, 1 << 12, 1 << 16, 1 << 20, MaxFrame}

var bufPools [len(bufClassSizes)]sync.Pool

// grabBuf returns a length-n buffer from the smallest fitting size
// class (freshly allocated at class capacity when the pool is empty).
func grabBuf(n int) []byte {
	for i, size := range bufClassSizes {
		if n <= size {
			if b, ok := bufPools[i].Get().(*[]byte); ok {
				return (*b)[:n]
			}
			return make([]byte, n, size)
		}
	}
	return make([]byte, n) // larger than MaxFrame: caller already rejected
}

// releaseBuf returns a buffer to its size-class pool. Buffers whose
// capacity is not an exact class size (including nil) are dropped.
func releaseBuf(b []byte) {
	for i, size := range bufClassSizes {
		if cap(b) == size {
			b = b[:0]
			bufPools[i].Put(&b)
			return
		}
	}
}

// Reader decodes frames from a stream, reusing one payload buffer
// across frames (drawn from the package's size-classed pool when it
// must grow). It is not safe for concurrent use; a connection owns one
// Reader on its read side and should Release it when the connection
// closes.
type Reader struct {
	r   io.Reader
	buf []byte
	len [4]byte
	// scr retains the Frame field buffers across NextReused calls:
	// DecodeFrame nils an empty field (part of its public contract),
	// which would discard the capacity a frame of a different shape grew
	// — e.g. a GET (key, no vals) after a PUT (key and vals) would drop
	// the vals buffer and force the next PUT to reallocate it.
	// NextReused lends these to the frame before decoding and stashes
	// back whatever the frame holds afterwards, so an alternating-shape
	// stream stays allocation-free in steady state.
	scr struct {
		key   []byte
		vals  []uint64
		items []Item
	}
}

// NewReader wraps r. For performance the caller should hand in a
// buffered reader; Reader adds no buffering of its own.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next reads one frame into f. io.EOF is returned verbatim on a clean
// end-of-stream boundary; a stream that ends inside a frame returns
// io.ErrUnexpectedEOF.
func (r *Reader) Next(f *Frame) error {
	if _, err := io.ReadFull(r.r, r.len[:]); err != nil {
		return err
	}
	n := int(le.Uint32(r.len[:]))
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	if cap(r.buf) < n {
		releaseBuf(r.buf)
		r.buf = grabBuf(n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return DecodeFrame(r.buf, f)
}

// NextReused reads like Next but additionally retains the frame's
// variable-length buffers across calls, so a stream of frames with
// alternating shapes decodes without per-frame allocations. The decoded
// fields are valid only until the next NextReused call on this Reader —
// use plain Next when decoded frames are handed to another goroutine or
// otherwise outlive the loop iteration (a client's response loop hands
// them to waiters; the server's read-execute-answer loop does not).
func (r *Reader) NextReused(f *Frame) error {
	if f.Key == nil {
		f.Key = r.scr.key
	}
	if f.Vals == nil {
		f.Vals = r.scr.vals
	}
	if f.Items == nil {
		f.Items = r.scr.items
	}
	err := r.Next(f)
	if f.Key != nil {
		r.scr.key = f.Key
	}
	if f.Vals != nil {
		r.scr.vals = f.Vals
	}
	if f.Items != nil {
		r.scr.items = f.Items
	}
	return err
}

// Release returns the Reader's payload buffer to the package pool for
// the next connection's Reader. The Reader remains usable (it will
// re-grab a buffer on demand); call it once the stream is done.
func (r *Reader) Release() {
	releaseBuf(r.buf)
	r.buf = nil
}

// Writer encodes frames onto a stream, reusing one encode buffer. It is
// not safe for concurrent use; a connection owns one Writer on its
// write side (the server's connection loop also batches: it encodes
// responses back-to-back and flushes once the pending requests are
// answered).
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter wraps w (typically a bufio.Writer whose Flush the caller
// controls, so pipelined responses coalesce into few syscalls).
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Write encodes and writes one frame.
func (w *Writer) Write(f *Frame) error {
	w.buf = AppendFrame(w.buf[:0], f)
	_, err := w.w.Write(w.buf)
	return err
}
