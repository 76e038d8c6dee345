package objstore

import (
	"bufio"
	"fmt"
	"io"
	"net"

	"griddles/internal/admit"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// Server serves one Store to remote File Multiplexers.
type Server struct {
	store  *Store
	clock  simclock.Clock
	chunk  int
	adm    *admit.Controller
	codecs []string
}

// NewServer returns a Server exporting store.
func NewServer(store *Store, clock simclock.Clock) *Server {
	return &Server{store: store, clock: clock, chunk: streamChunk}
}

// Store reports the object table this server exports (for seeding tests).
func (s *Server) Store() *Store { return s.store }

// SetAdmission installs an admission controller; nil (the default) admits
// everything, preserving the unprotected server's behaviour bit for bit.
// Stat and list are Control class; object gets and puts are Bulk.
func (s *Server) SetAdmission(c *admit.Controller) { s.adm = c }

// SetCodecs restricts the stream codecs this server will negotiate (the
// daemon's -codecs flag). Empty (the default) accepts everything this build
// supports; raw is always available regardless.
func (s *Server) SetCodecs(names []string) { s.codecs = names }

// admission maps a request type to how the shared loop admits it: stat,
// list and negotiation are Control; gets and puts are Bulk, and a shed
// put's upload is drained.
func admission(typ uint8) admit.Admission {
	switch typ {
	case msgStat, msgList, msgNegotiate:
		return admit.Admission{Class: admit.Control}
	case msgPutBegin:
		return admit.Admission{Class: admit.Bulk, StreamEnd: msgPutEnd}
	}
	return admit.Admission{Class: admit.Bulk}
}

// Serve accepts connections until l is closed, through the shared
// admit.Serve loop.
func (s *Server) Serve(l net.Listener) {
	admit.Serve(l, s.clock, s.adm, "objstore", func() admit.Handler {
		cc := &wire.CodecBuf{}
		return admit.Handler{Admit: admission, Handle: func(rw *bufio.ReadWriter, typ uint8, payload []byte) error {
			return s.dispatch(rw, typ, payload, cc)
		}}
	})
}

func (s *Server) dispatch(w *bufio.ReadWriter, typ uint8, payload []byte, cc *wire.CodecBuf) error {
	switch typ {
	case msgNegotiate:
		d := wire.NewDecoder(payload)
		req := d.String()
		if err := d.Err(); err != nil {
			return admit.WriteError(w, err)
		}
		var chosen string
		chosen, cc.Codec = wire.NegotiateCodec(req, s.codecs)
		return wire.WriteFrame(w, msgNegotiateResp, wire.NewEncoder().String(chosen).Bytes())

	case msgStat:
		req, err := decodeStatReq(payload)
		if err != nil {
			return admit.WriteError(w, err)
		}
		size, exists := s.store.Stat(req.Key)
		return wire.WriteFrame(w, msgStatResp, statResp{Exists: exists, Size: size}.encode())

	case msgGet:
		req, err := decodeGetReq(payload)
		if err != nil {
			return admit.WriteError(w, err)
		}
		return s.get(w, req, cc)

	case msgList:
		req, err := decodeListReq(payload)
		if err != nil {
			return admit.WriteError(w, err)
		}
		return wire.WriteFrame(w, msgListResp, listResp{Objects: s.store.List(req.Prefix)}.encode())

	case msgPutBegin:
		req, err := decodePutBegin(payload)
		if err != nil {
			wire.DrainUntil(w.Reader, msgPutEnd, new([]byte))
			return admit.WriteError(w, err)
		}
		return s.put(w, req.Key, cc)

	default:
		return admit.WriteError(w, fmt.Errorf("objstore: unknown message type %d", typ))
	}
}

// get streams the requested range as header, data frames, end.
func (s *Server) get(w io.Writer, req getReq, cc *wire.CodecBuf) error {
	data, ok := s.store.Get(req.Key)
	if !ok {
		return admit.WriteError(w, fmt.Errorf("objstore: %s: no such object", req.Key))
	}
	size := int64(len(data))
	off := req.Off
	if off > size {
		off = size
	}
	end := size
	if req.Length >= 0 && off+req.Length < end {
		end = off + req.Length
	}
	if err := wire.WriteFrame(w, msgGetHdr, getHdr{Total: end - off, Size: size}.encode()); err != nil {
		return err
	}
	for off < end {
		n := int64(s.chunk)
		if end-off < n {
			n = end - off
		}
		if err := wire.WriteFrame(w, msgGetData, cc.Enc(data[off:off+n])); err != nil {
			return err
		}
		off += n
	}
	return wire.WriteFrame(w, msgGetEnd, nil)
}

// put accumulates the upload stream and commits it atomically when the end
// frame arrives. A connection that dies mid-stream commits nothing — that
// is the whole-object atomic PUT contract, and it is what makes a client
// replay after a transport fault safe (the object appears exactly once,
// complete).
func (s *Server) put(rw *bufio.ReadWriter, key string, cc *wire.CodecBuf) error {
	var body []byte
	var frameBuf []byte
	for {
		typ, payload, err := wire.ReadFrameInto(rw.Reader, &frameBuf)
		if err != nil {
			return err
		}
		switch typ {
		case msgPutData:
			chunk, derr := cc.Dec(payload)
			if derr != nil {
				return admit.WriteError(rw, derr)
			}
			body = append(body, chunk...)
		case msgPutEnd:
			s.store.Put(key, body)
			return wire.WriteFrame(rw, msgPutResp, putResp{Size: int64(len(body))}.encode())
		default:
			return admit.WriteError(rw, fmt.Errorf("objstore: unexpected frame %d during put", typ))
		}
	}
}
