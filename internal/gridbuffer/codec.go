package gridbuffer

import (
	"io"

	"griddles/internal/wire"
)

// Block-codec negotiation rides the Attach exchange: a client that wants a
// compressed stream appends the codec name after the historical attach
// fields (old servers ignore trailing bytes), and a new server appends its
// choice to the attach response (old clients ignore it likewise; new
// clients treat a response without the field as an old server and stay
// raw). A client configured raw appends nothing, so the default wire bytes
// are identical to the pre-codec protocol. Only block payloads are
// transformed — framing, indices and acknowledgements stay raw.
//
// Connection-per-call mode (the paper's 2004 SOAP discipline) never
// negotiates: its data connections skip the Attach exchange entirely.

// writePutFrame writes blocks as the smallest frame carrying them — the
// historical one-block PUT (byte-identical to the pre-batch protocol) or a
// PUT-BATCH — using vectored IO, so block payloads travel straight from the
// pending list (or the compression arena) to the socket without being
// assembled into an intermediate buffer first.
func writePutFrame(w io.Writer, key string, blocks []wblock, cs *wire.CodecBuf) error {
	if len(blocks) == 1 {
		data := cs.Enc(blocks[0].data)
		hdr := wire.NewEncoder().String(key).I64(blocks[0].idx).U32(uint32(len(data)))
		return wire.WriteFrameV(w, msgPut, hdr.Bytes(), data)
	}
	// Compress every block into one arena first: the header segments and
	// payload spans are sliced out only after both buffers stop growing.
	type span struct {
		a, b int    // arena range (codec active)
		raw  []byte // original payload (raw state)
	}
	spans := make([]span, len(blocks))
	arena := cs.Arena()
	hdrs := wire.NewEncoder()
	hdrs.String(key).U32(uint32(len(blocks)))
	marks := make([]int, len(blocks))
	for i, blk := range blocks {
		n := len(blk.data)
		if cs.Active() {
			a := len(arena)
			arena = cs.Codec.Encode(arena, blk.data)
			spans[i] = span{a: a, b: len(arena)}
			n = len(arena) - a
		} else {
			spans[i] = span{raw: blk.data}
		}
		hdrs.I64(blk.idx).U32(uint32(n))
		marks[i] = len(hdrs.Bytes())
	}
	cs.KeepArena(arena)
	hb := hdrs.Bytes()
	parts := make([][]byte, 0, 2*len(blocks))
	prev := 0
	for i := range blocks {
		parts = append(parts, hb[prev:marks[i]])
		prev = marks[i]
		if spans[i].raw != nil {
			parts = append(parts, spans[i].raw)
		} else {
			parts = append(parts, arena[spans[i].a:spans[i].b])
		}
	}
	return wire.WriteFrameV(w, msgPutBatch, parts...)
}
