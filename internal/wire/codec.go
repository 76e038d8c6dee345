package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Codec names negotiated at stream open. Raw is the wire format every peer
// speaks: it adds no framing at all, so a stream negotiated (or defaulted)
// to raw is byte-identical to the pre-negotiation protocol.
const (
	CodecRaw = "raw"
	CodecLZB = "lzb"
)

// Codec transforms a block payload for the wire. Encode appends the encoded
// form of src to dst and returns the extended slice; Decode reverses it.
// Implementations must be safe for concurrent use and must round-trip any
// byte string exactly.
type Codec interface {
	Name() string
	Encode(dst, src []byte) []byte
	Decode(dst, src []byte) ([]byte, error)
}

// CodecBuf is one stream's negotiated Codec plus reusable transform
// buffers, so a steady stream allocates nothing per block. A nil *CodecBuf,
// or one with a nil Codec, is a raw stream: it passes data through.
type CodecBuf struct {
	Codec  Codec
	encBuf []byte
	decBuf []byte
}

// Active reports whether the stream transforms its payloads.
func (b *CodecBuf) Active() bool { return b != nil && b.Codec != nil }

// Enc encodes one block payload; the result aliases an internal buffer
// valid until the next Enc. A raw stream returns data untouched.
func (b *CodecBuf) Enc(data []byte) []byte {
	if !b.Active() {
		return data
	}
	b.encBuf = b.Codec.Encode(b.encBuf[:0], data)
	return b.encBuf
}

// Dec reverses Enc; the result aliases an internal buffer valid until the
// next Dec.
func (b *CodecBuf) Dec(data []byte) ([]byte, error) {
	if !b.Active() {
		return data, nil
	}
	var err error
	b.decBuf, err = b.Codec.Decode(b.decBuf[:0], data)
	return b.decBuf, err
}

// Arena lends out the emptied encode buffer to a caller that encodes
// several blocks back to back; KeepArena takes the grown buffer back.
// Either invalidates the result of the last Enc. A nil *CodecBuf lends nil.
func (b *CodecBuf) Arena() []byte {
	if b == nil {
		return nil
	}
	return b.encBuf[:0]
}

// KeepArena stores an arena grown from Arena for reuse.
func (b *CodecBuf) KeepArena(arena []byte) {
	if b != nil {
		b.encBuf = arena
	}
}

// ErrBadBlock is wrapped by Decode errors for malformed encoded blocks.
var ErrBadBlock = errors.New("wire: malformed codec block")

// Block methods inside an encoded payload: [u8 method][u32 rawLen][body].
// A compressing encoder stores blocks that don't shrink, so the encoded
// form is never more than 5 bytes larger than the input.
const (
	blockStored = 0
	blockLZB    = 1
)

// SupportedCodecs lists every codec this build can decode, preference last
// (raw is the universal fallback).
func SupportedCodecs() []string { return []string{CodecRaw, CodecLZB} }

// CodecSupported reports whether name is a codec this build speaks.
func CodecSupported(name string) bool {
	return name == CodecRaw || name == CodecLZB
}

// ForName returns the codec for name. Raw (and the empty string) return nil:
// a nil Codec means "leave payloads alone", which is how every call site
// keeps the negotiated-raw path byte-identical to the historical protocol.
func ForName(name string) (Codec, error) {
	switch name {
	case "", CodecRaw:
		return nil, nil
	case CodecLZB:
		return lzbCodec{}, nil
	default:
		return nil, fmt.Errorf("wire: unknown codec %q", name)
	}
}

// NegotiateCodec picks the codec a server answers with: the client's request
// when the server both speaks it and accepts it, raw otherwise. It returns
// the chosen name with its Codec (nil for raw). accept is the server's
// -codecs allow list; empty accepts everything supported.
func NegotiateCodec(requested string, accept []string) (string, Codec) {
	c, err := ForName(requested)
	if err != nil || c == nil || (len(accept) > 0 && !slices.Contains(accept, requested)) {
		return CodecRaw, nil
	}
	return requested, c
}

// ParseCodecList parses a comma-separated -codecs flag value, validating
// every name.
func ParseCodecList(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		if !CodecSupported(name) {
			return nil, fmt.Errorf("wire: unknown codec %q in list %q", name, s)
		}
		out = append(out, name)
	}
	return out, nil
}

// lzbCodec is the native LZ4-style block compressor. Encoded form:
// [u8 method][u32 rawLen][body], where method 1 is an lzb token stream and
// method 0 stores the raw bytes verbatim (chosen whenever compression
// fails to shrink the block).
type lzbCodec struct{}

// Name implements Codec.
func (lzbCodec) Name() string { return CodecLZB }

// Encode implements Codec.
func (lzbCodec) Encode(dst, src []byte) []byte {
	dst = append(dst, blockLZB)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(src)))
	mark := len(dst)
	dst = lzbCompress(dst, src)
	if len(dst)-mark >= len(src) {
		dst = dst[:mark]
		dst[mark-5] = blockStored
		dst = append(dst, src...)
	}
	return dst
}

// Decode implements Codec.
func (lzbCodec) Decode(dst, src []byte) ([]byte, error) {
	if len(src) < 5 {
		return nil, fmt.Errorf("%w: %d-byte block header", ErrBadBlock, len(src))
	}
	method := src[0]
	rawLen := binary.BigEndian.Uint32(src[1:5])
	if rawLen > MaxFrame {
		return nil, fmt.Errorf("%w: raw length %d exceeds frame bound", ErrBadBlock, rawLen)
	}
	body := src[5:]
	switch method {
	case blockStored:
		if len(body) != int(rawLen) {
			return nil, fmt.Errorf("%w: stored block is %d bytes, header says %d", ErrBadBlock, len(body), rawLen)
		}
		return append(dst, body...), nil
	case blockLZB:
		return lzbDecompress(dst, body, int(rawLen))
	default:
		return nil, fmt.Errorf("%w: unknown method %d", ErrBadBlock, method)
	}
}
