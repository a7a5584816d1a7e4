package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Binary accumulator records back the durability layer (lia.WithDurability):
// a checkpoint embeds exactly one record per accumulator, and the invariant
// the codec guarantees is that encode → decode → continued Adds produces
// moments bitwise identical to an uninterrupted run. To that end every
// float64 round-trips through math.Float64bits (no text formatting, no
// re-derivation), and only durable state is persisted.
//
// Record layout (all integers little-endian):
//
//	u32 magic "LIAM" | u8 version | u8 kind | u16 reserved
//	u32 dim | u32 payloadLen | payload | u32 crc32(IEEE, header+payload)
//
// Payloads by kind:
//
//	cumulative: u64 n, dim·f64 mean, tri·f64 comom
//	windowed:   u32 window, u32 n, u32 head, u32 reserved,
//	            dim·f64 mean, tri·f64 comom, window·dim·f64 ring
//	decay:      f64 lambda, u64 n, f64 w, f64 w2, dim·f64 mean, tri·f64 comom
const (
	codecMagic   uint32 = 0x4D41494C // "LIAM"
	codecVersion byte   = 1

	kindCumulative byte = 1
	kindWindowed   byte = 2
	kindDecay      byte = 3

	recHeaderLen = 16 // magic..payloadLen
)

// ErrCorruptRecord reports an accumulator record that failed structural or
// CRC validation. Decode errors wrap it so callers can classify corruption
// without string matching.
var ErrCorruptRecord = errors.New("stats: corrupt accumulator record")

// maxCodecDim bounds the dimension a decoder will allocate for, mirroring
// lia.ErrTopologyTooLarge's guard against hostile or garbage headers.
const maxCodecDim = 1 << 20

func appendFloats(buf []byte, xs []float64) []byte {
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

func readFloats(data []byte, dst []float64) []byte {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return data[8*len(dst):]
}

// AppendAccumulator appends one framed record for acc to buf and returns the
// extended slice. It supports exactly the three accumulator types this
// package exports; any other MomentAccumulator is an error.
func AppendAccumulator(buf []byte, acc MomentAccumulator) ([]byte, error) {
	start := len(buf)
	var kind byte
	var payload int
	tri := func(dim int) int { return dim * (dim + 1) / 2 }
	switch a := acc.(type) {
	case *CovAccumulator:
		kind, payload = kindCumulative, 8+8*(a.dim+tri(a.dim))
	case *WindowedCovAccumulator:
		kind, payload = kindWindowed, 16+8*(a.dim+tri(a.dim)+a.window*a.dim)
	case *DecayCovAccumulator:
		kind, payload = kindDecay, 32+8*(a.dim+tri(a.dim))
	default:
		return nil, fmt.Errorf("stats: cannot encode accumulator type %T", acc)
	}
	buf = binary.LittleEndian.AppendUint32(buf, codecMagic)
	buf = append(buf, codecVersion, kind, 0, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(acc.Dim()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payload))
	switch a := acc.(type) {
	case *CovAccumulator:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(a.n))
		buf = appendFloats(buf, a.mean)
		buf = appendFloats(buf, a.comom)
	case *WindowedCovAccumulator:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(a.window))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(a.n))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(a.head))
		buf = binary.LittleEndian.AppendUint32(buf, 0)
		buf = appendFloats(buf, a.mean)
		buf = appendFloats(buf, a.comom)
		buf = appendFloats(buf, a.ring)
	case *DecayCovAccumulator:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.lambda))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(a.n))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.w))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.w2))
		buf = appendFloats(buf, a.mean)
		buf = appendFloats(buf, a.comom)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:])), nil
}

// DecodeAccumulator decodes one framed record from the front of data,
// returning the rebuilt accumulator and the number of bytes consumed. The
// returned accumulator is fully independent of data and ready for further
// Adds; all errors wrap ErrCorruptRecord.
func DecodeAccumulator(data []byte) (MomentAccumulator, int, error) {
	fail := func(format string, args ...any) (MomentAccumulator, int, error) {
		return nil, 0, fmt.Errorf("%w: %s", ErrCorruptRecord, fmt.Sprintf(format, args...))
	}
	if len(data) < recHeaderLen+4 {
		return fail("short record: %d bytes", len(data))
	}
	if m := binary.LittleEndian.Uint32(data); m != codecMagic {
		return fail("bad magic %#x", m)
	}
	if v := data[4]; v != codecVersion {
		return fail("unsupported version %d", v)
	}
	kind := data[5]
	dim := int(binary.LittleEndian.Uint32(data[8:]))
	payload := int(binary.LittleEndian.Uint32(data[12:]))
	if dim <= 0 || dim > maxCodecDim {
		return fail("dimension %d out of range", dim)
	}
	total := recHeaderLen + payload + 4
	if payload < 0 || len(data) < total {
		return fail("truncated payload: want %d bytes, have %d", total, len(data))
	}
	want := binary.LittleEndian.Uint32(data[recHeaderLen+payload:])
	if got := crc32.ChecksumIEEE(data[:recHeaderLen+payload]); got != want {
		return fail("crc mismatch: computed %#x, stored %#x", got, want)
	}
	body := data[recHeaderLen : recHeaderLen+payload]
	tri := dim * (dim + 1) / 2
	switch kind {
	case kindCumulative:
		if payload != 8+8*(dim+tri) {
			return fail("cumulative payload length %d for dim %d", payload, dim)
		}
		c := NewCovAccumulator(dim)
		c.n = int(binary.LittleEndian.Uint64(body))
		body = readFloats(body[8:], c.mean)
		readFloats(body, c.comom)
		return c, total, nil
	case kindWindowed:
		if payload < 16 {
			return fail("windowed payload length %d", payload)
		}
		window := int(binary.LittleEndian.Uint32(body))
		n := int(binary.LittleEndian.Uint32(body[4:]))
		head := int(binary.LittleEndian.Uint32(body[8:]))
		if window < 2 || window > maxCodecDim || n < 0 || n > window || head < 0 || head >= window {
			return fail("windowed state window=%d n=%d head=%d", window, n, head)
		}
		if payload != 16+8*(dim+tri+window*dim) {
			return fail("windowed payload length %d for dim %d window %d", payload, dim, window)
		}
		c := NewWindowedCovAccumulator(dim, window)
		c.n, c.head = n, head
		body = readFloats(body[16:], c.mean)
		body = readFloats(body, c.comom)
		readFloats(body, c.ring)
		return c, total, nil
	case kindDecay:
		if payload != 32+8*(dim+tri) {
			return fail("decay payload length %d for dim %d", payload, dim)
		}
		lambda := math.Float64frombits(binary.LittleEndian.Uint64(body))
		if !(lambda > 0 && lambda <= 1) {
			return fail("decay factor %g outside (0, 1]", lambda)
		}
		c := NewDecayCovAccumulator(dim, lambda)
		c.n = int(binary.LittleEndian.Uint64(body[8:]))
		c.w = math.Float64frombits(binary.LittleEndian.Uint64(body[16:]))
		c.w2 = math.Float64frombits(binary.LittleEndian.Uint64(body[24:]))
		body = readFloats(body[32:], c.mean)
		readFloats(body, c.comom)
		return c, total, nil
	default:
		return fail("unknown accumulator kind %d", kind)
	}
}
