package gridbuffer

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"griddles/internal/admit"
	"griddles/internal/obs"
	"griddles/internal/simclock"
	"griddles/internal/vfs"
	"griddles/internal/wire"
)

// Protocol message types (binary transport; internal/soap carries the same
// operations in SOAP envelopes).
const (
	msgAttach         = 1
	msgAttachResp     = 2
	msgPut            = 3
	msgPutResp        = 4
	msgGet            = 5
	msgGetResp        = 6
	msgCloseWrite     = 7
	msgCloseWriteResp = 8
	msgDetach         = 9
	msgDetachResp     = 10
	msgDrop           = 11
	msgDropResp       = 12
	// Pipelined extensions: a PUT-BATCH carries several blocks in one frame
	// and is acknowledged once; a windowed GET asks for a run of blocks and
	// receives one response frame per block, flushed as each becomes
	// available, so a reader keeps N requests outstanding without N frames.
	msgPutBatch     = 13
	msgPutBatchResp = 14
	msgGetWin       = 15
	msgGetWinResp   = 16
	msgError        = 255
)

// Roles in an Attach request.
const (
	roleWriter = 0
	roleReader = 1
)

// Registry owns the named buffers of one Grid Buffer service instance.
type Registry struct {
	clock   simclock.Clock
	cacheFS vfs.FS

	mu        sync.RWMutex
	obs       *obs.Observer
	buffers   map[string]*Buffer
	defShards int // applied when creating options leave Shards zero

	windowDepth atomic.Pointer[obs.Histogram]
}

// NewRegistry returns an empty Registry. cacheFS (may be nil) hosts cache
// files for buffers that enable them — on a testbed machine this is the
// machine's disk-cost-accounted file system.
func NewRegistry(clock simclock.Clock, cacheFS vfs.FS) *Registry {
	r := &Registry{clock: clock, cacheFS: cacheFS, buffers: make(map[string]*Buffer)}
	r.windowDepth.Store((*obs.Observer)(nil).Histogram("buf.window.depth"))
	return r
}

// SetObserver routes metrics of all buffers — current and future — to o;
// nil discards them.
func (r *Registry) SetObserver(o *obs.Observer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obs = o
	r.windowDepth.Store(o.Histogram("buf.window.depth"))
	for _, b := range r.buffers {
		b.SetObserver(o)
	}
}

// SetDefaultShards sets the block-table shard count applied to buffers
// whose creating options leave Shards zero (the usual case: clients rarely
// override it). Zero restores DefaultShards.
func (r *Registry) SetDefaultShards(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.defShards = n
}

// GetOrCreate returns the buffer named key, creating it with opts on first
// use. Options of later attachers are ignored: the first attach wins, which
// is safe because writer and readers receive the same GNS mapping.
func (r *Registry) GetOrCreate(key string, opts Options) *Buffer {
	r.mu.RLock()
	b, ok := r.buffers[key]
	r.mu.RUnlock()
	if ok {
		return b
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.buffers[key]; ok {
		return b
	}
	if opts.Cache && opts.CacheFS == nil {
		opts.CacheFS = r.cacheFS
	}
	if opts.Shards == 0 {
		opts.Shards = r.defShards
	}
	b = NewBuffer(r.clock, key, opts)
	if r.obs != nil {
		b.SetObserver(r.obs)
	}
	r.buffers[key] = b
	return b
}

// Lookup returns the buffer named key, if present.
func (r *Registry) Lookup(key string) (*Buffer, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	b, ok := r.buffers[key]
	return b, ok
}

// Drop removes and aborts the buffer named key.
func (r *Registry) Drop(key string) {
	r.mu.Lock()
	b, ok := r.buffers[key]
	delete(r.buffers, key)
	r.mu.Unlock()
	if ok {
		b.Drop()
	}
}

// Len reports the number of live buffers.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.buffers)
}

// Server exposes a Registry over the framed binary protocol.
type Server struct {
	reg    *Registry
	clock  simclock.Clock
	adm    *admit.Controller
	codecs []string
}

// NewServer returns a Server for reg.
func NewServer(reg *Registry, clock simclock.Clock) *Server {
	return &Server{reg: reg, clock: clock}
}

// Registry returns the served registry.
func (s *Server) Registry() *Registry { return s.reg }

// SetAdmission installs an admission controller; nil (the default) admits
// everything, preserving the unprotected server's behaviour bit for bit.
//
// Buffer admission is per stream, not per request: a connection's first
// Attach acquires one Bulk slot that is held until the connection closes.
// Mid-stream requests (put, get, acks) are never shed — shedding them would
// tear holes in the keep-until-ack replay protocol — so overload is pushed
// to stream setup, where a shed composes cleanly with the client's
// attach-level retry.
func (s *Server) SetAdmission(c *admit.Controller) { s.adm = c }

// SetCodecs restricts the block codecs this server will negotiate (the
// daemon's -codecs flag). Empty (the default) accepts everything this build
// supports; raw is always available regardless.
func (s *Server) SetCodecs(names []string) { s.codecs = names }

// admission maps a request type to how the shared loop admits it: a
// connection's first Attach takes the stream's Bulk slot, and nothing else
// is admitted.
func admission(typ uint8) admit.Admission {
	if typ == msgAttach {
		return admit.Admission{Class: admit.Bulk, Scope: admit.PerConn}
	}
	return admit.Admission{Scope: admit.Unadmitted}
}

// Serve accepts connections until l is closed, through the shared
// admit.Serve loop.
func (s *Server) Serve(l net.Listener) {
	admit.Serve(l, s.clock, s.adm, "gridbuffer", func() admit.Handler {
		cs := &wire.CodecBuf{}
		return admit.Handler{Admit: admission, Handle: func(rw *bufio.ReadWriter, typ uint8, payload []byte) error {
			return s.dispatch(rw.Writer, typ, payload, cs)
		}}
	})
}

func decodeOptions(d *wire.Decoder) Options {
	var o Options
	o.BlockSize = int(d.U32())
	o.Capacity = int(d.U32())
	o.Cache = d.Bool()
	o.CachePath = d.String()
	o.Readers = int(d.U32())
	o.Shards = int(d.U32())
	return o
}

func encodeOptions(e *wire.Encoder, o Options) {
	e.U32(uint32(o.BlockSize))
	e.U32(uint32(o.Capacity))
	e.Bool(o.Cache)
	e.String(o.CachePath)
	e.U32(uint32(o.Readers))
	e.U32(uint32(o.Shards))
}

// putBatchReq is a decoded PUT-BATCH frame.
type putBatchReq struct {
	key    string
	blocks []wblock
}

// maxBatchBlocks bounds the per-frame block count a decoder will accept,
// protecting the server from a hostile count field (the frame size itself
// is already bounded by wire.MaxFrame).
const maxBatchBlocks = 4096

func encodePutBatch(e *wire.Encoder, key string, blocks []wblock) {
	e.String(key)
	e.U32(uint32(len(blocks)))
	for _, blk := range blocks {
		e.I64(blk.idx)
		e.Bytes32(blk.data)
	}
}

func decodePutBatch(d *wire.Decoder) (putBatchReq, error) {
	var r putBatchReq
	r.key = d.String()
	n := d.U32()
	if err := d.Err(); err != nil {
		return r, err
	}
	if n > maxBatchBlocks {
		return r, fmt.Errorf("gridbuffer: put-batch of %d blocks exceeds limit %d", n, maxBatchBlocks)
	}
	r.blocks = make([]wblock, 0, n)
	for i := uint32(0); i < n; i++ {
		idx := d.I64()
		data := d.Bytes32()
		if err := d.Err(); err != nil {
			return r, err
		}
		r.blocks = append(r.blocks, wblock{idx: idx, data: data})
	}
	return r, d.Err()
}

// getWinReq is a decoded windowed-GET frame: blocks [first, first+count)
// for readerID, acknowledging everything below ackBelow.
type getWinReq struct {
	key      string
	readerID int
	first    int64
	count    int
	ackBelow int64
}

func encodeGetWin(e *wire.Encoder, r getWinReq) {
	e.String(r.key)
	e.I64(int64(r.readerID))
	e.I64(r.first)
	e.U32(uint32(r.count))
	e.I64(r.ackBelow)
}

func decodeGetWin(d *wire.Decoder) (getWinReq, error) {
	var r getWinReq
	r.key = d.String()
	r.readerID = int(d.I64())
	r.first = d.I64()
	r.count = int(d.U32())
	r.ackBelow = d.I64()
	if err := d.Err(); err != nil {
		return r, err
	}
	if r.count < 0 || r.count > maxBatchBlocks {
		return r, fmt.Errorf("gridbuffer: get window of %d blocks exceeds limit %d", r.count, maxBatchBlocks)
	}
	return r, nil
}

func (s *Server) dispatch(bw *bufio.Writer, typ uint8, payload []byte, cs *wire.CodecBuf) error {
	var w io.Writer = bw
	d := wire.NewDecoder(payload)
	switch typ {
	case msgAttach:
		key := d.String()
		role := d.U8()
		opts := decodeOptions(d)
		// prev is the reader ID of an earlier attach this request resumes
		// (-1 for a first attach), so a reconnected reader keeps its
		// identity in broadcast accounting.
		prev := int(d.I64())
		// A codec-capable client appends the codec it wants; the historical
		// request ends at prev, so absence means a raw stream.
		reqCodec := ""
		if d.Err() == nil && d.Remaining() > 0 {
			reqCodec = d.String()
		}
		if err := d.Err(); err != nil {
			return admit.WriteError(w, err)
		}
		b := s.reg.GetOrCreate(key, opts)
		readerID := -1
		if role == roleReader {
			readerID = b.Reattach(prev)
		}
		e := wire.NewEncoder()
		e.I64(int64(readerID)).U32(uint32(b.BlockSize()))
		if reqCodec != "" {
			var chosen string
			chosen, cs.Codec = wire.NegotiateCodec(reqCodec, s.codecs)
			e.String(chosen)
		}
		return wire.WriteFrame(w, msgAttachResp, e.Bytes())

	case msgPut:
		key := d.String()
		idx := d.I64()
		data := d.Bytes32()
		if err := d.Err(); err != nil {
			return admit.WriteError(w, err)
		}
		data, derr := cs.Dec(data)
		if derr != nil {
			return admit.WriteError(w, derr)
		}
		b, ok := s.reg.Lookup(key)
		if !ok {
			return admit.WriteError(w, fmt.Errorf("gridbuffer: no buffer %q", key))
		}
		if err := b.Put(idx, data); err != nil {
			return admit.WriteError(w, err)
		}
		return wire.WriteFrame(w, msgPutResp, nil)

	case msgPutBatch:
		req, err := decodePutBatch(d)
		if err != nil {
			return admit.WriteError(w, err)
		}
		b, ok := s.reg.Lookup(req.key)
		if !ok {
			return admit.WriteError(w, fmt.Errorf("gridbuffer: no buffer %q", req.key))
		}
		for _, blk := range req.blocks {
			data, derr := cs.Dec(blk.data)
			if derr != nil {
				return admit.WriteError(w, derr)
			}
			if err := b.Put(blk.idx, data); err != nil {
				return admit.WriteError(w, err)
			}
		}
		e := wire.NewEncoder()
		e.U32(uint32(len(req.blocks)))
		return wire.WriteFrame(w, msgPutBatchResp, e.Bytes())

	case msgGet:
		key := d.String()
		readerID := int(d.I64())
		idx := d.I64()
		// ackBelow acknowledges safe receipt of every block < ackBelow; the
		// requested block itself stays resident until a later ack, so a
		// response lost on the wire can be re-requested after reconnect.
		ackBelow := d.I64()
		if err := d.Err(); err != nil {
			return admit.WriteError(w, err)
		}
		b, ok := s.reg.Lookup(key)
		if !ok {
			return admit.WriteError(w, fmt.Errorf("gridbuffer: no buffer %q", key))
		}
		if ackBelow > 0 {
			b.AckBelow(readerID, ackBelow)
		}
		data, eof, err := b.GetKeep(readerID, idx)
		if err != nil {
			return admit.WriteError(w, err)
		}
		out := cs.Enc(data)
		e := wire.NewEncoder()
		e.Bool(eof).U32(uint32(len(out)))
		err = wire.WriteFrameV(w, msgGetResp, e.Bytes(), out)
		b.Recycle(data)
		return err

	case msgGetWin:
		req, err := decodeGetWin(d)
		if err != nil {
			return admit.WriteError(w, err)
		}
		b, ok := s.reg.Lookup(req.key)
		if !ok {
			return admit.WriteError(w, fmt.Errorf("gridbuffer: no buffer %q", req.key))
		}
		if req.ackBelow > 0 {
			b.AckBelow(req.readerID, req.ackBelow)
		}
		s.reg.windowDepth.Load().Observe(int64(req.count))
		// One response frame per block, flushed as the block becomes
		// available: the blocking read of block k overlaps the delivery of
		// blocks < k, which is what kills the one-block-per-RTT ceiling.
		// The block payload is written vectored, straight from the buffer
		// (or the connection's compression arena) — no per-block assembly
		// copy, no per-block allocation.
		e := wire.NewEncoder()
		for i := 0; i < req.count; i++ {
			idx := req.first + int64(i)
			data, eof, err := b.GetKeep(req.readerID, idx)
			if err != nil {
				return admit.WriteError(w, err)
			}
			out := cs.Enc(data)
			e.Reset()
			e.I64(idx).Bool(eof).U32(uint32(len(out)))
			err = wire.WriteFrameV(bw, msgGetWinResp, e.Bytes(), out)
			b.Recycle(data)
			if err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		return nil

	case msgCloseWrite:
		key := d.String()
		total := d.I64()
		if err := d.Err(); err != nil {
			return admit.WriteError(w, err)
		}
		b, ok := s.reg.Lookup(key)
		if !ok {
			return admit.WriteError(w, fmt.Errorf("gridbuffer: no buffer %q", key))
		}
		if err := b.CloseWrite(total); err != nil {
			return admit.WriteError(w, err)
		}
		return wire.WriteFrame(w, msgCloseWriteResp, nil)

	case msgDetach:
		key := d.String()
		readerID := int(d.I64())
		if err := d.Err(); err != nil {
			return admit.WriteError(w, err)
		}
		if b, ok := s.reg.Lookup(key); ok {
			b.Detach(readerID)
		}
		return wire.WriteFrame(w, msgDetachResp, nil)

	case msgDrop:
		key := d.String()
		if err := d.Err(); err != nil {
			return admit.WriteError(w, err)
		}
		s.reg.Drop(key)
		return wire.WriteFrame(w, msgDropResp, nil)

	default:
		return admit.WriteError(w, fmt.Errorf("gridbuffer: unknown message type %d", typ))
	}
}
