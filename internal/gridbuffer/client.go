package gridbuffer

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"griddles/internal/admit"
	"griddles/internal/retry"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// Dialer opens connections to service addresses.
type Dialer interface {
	Dial(addr string) (net.Conn, error)
}

// DefaultWriterWindow bounds the writer's in-flight unacknowledged Puts in
// persistent-connection mode. The paper's Grid Buffer is a Web-Services
// request/response per block, so effective pipelining is shallow — this is
// the knob behind its observed latency sensitivity (Table 5) and is
// deliberately small by default. `go test -bench=AblationTransport` sweeps
// it against the connection-per-call discipline.
const DefaultWriterWindow = 2

// DefaultReaderDepth is the reader's prefetch pipeline depth.
const DefaultReaderDepth = 2

// wblock is one block the writer has sent but the server has not yet
// acknowledged. Acks arrive in send order, so the set is a FIFO; on
// reconnect the whole window replays (the server accepts replayed blocks
// idempotently).
type wblock struct {
	idx  int64
	data []byte
}

// Writer streams an application's sequential writes into a remote Grid
// Buffer as fixed-size blocks. It implements io.WriteCloser.
//
// With a retry policy set (WriterOptions.Retry), the writer survives
// transport faults: it reconnects, replays the unacknowledged block window,
// and continues. Without one it fails fast, as the paper's service did.
type Writer struct {
	clock     simclock.Clock
	conn      net.Conn
	bw        *bufio.Writer
	key       string
	blockSize int
	retry     retry.Policy

	// connection-per-call (SOAP-style) state
	connPerCall bool
	dialer      Dialer
	addr        string
	opts        Options

	// codecName is the codec proposed at every attach; cs is the state the
	// current connection actually negotiated.
	codecName string
	cs        *wire.CodecBuf

	window  *simclock.Semaphore
	winSize int64
	done    *simclock.Event
	batch   int

	mu      sync.Mutex // guards err, broken, gen, unacked
	err     error
	broken  bool
	gen     uint64
	unacked []wblock
	closed  bool

	partial []byte
	pending []wblock // full blocks accumulated for the next batch frame
	nextIdx int64
	total   int64
}

// WriterOptions tunes a Writer beyond the buffer Options.
type WriterOptions struct {
	// Window is the number of unacknowledged in-flight Puts (0 selects
	// DefaultWriterWindow).
	Window int
	// Batch is the number of blocks coalesced into one PUT-BATCH frame
	// (acknowledged once). 0 or 1 keeps the historical one-frame-per-block
	// protocol; larger batches amortize the per-frame round trip and are
	// clamped to the window. Blocks are held client-side until the batch
	// fills (Close flushes a partial batch).
	Batch int
	// Codec names the block codec proposed at attach ("" or "raw" keeps the
	// stream raw and the attach bytes identical to the historical protocol).
	// Connection-per-call mode never negotiates and ignores this.
	Codec string
	// ConnPerCall reproduces the paper's Web-Services transport behaviour:
	// every block is delivered on a fresh, politely closed connection (TCP
	// handshake + request round trip + serialized teardown, ~3 RTTs per
	// block), as 2004 connection-per-call SOAP stacks did. This is
	// dramatically latency-sensitive — the very effect the paper observes
	// on its trans-continental Table 5 rows — and is the default in the
	// experiment harness. Window is ignored in this mode.
	ConnPerCall bool
	// Retry is the resilience policy; the zero policy fails fast.
	Retry retry.Policy
}

// attach dials addr and performs one Attach handshake, returning the open
// connection and the negotiated parameters. prev is the reader ID a
// reconnecting reader resumes (-1 for writers and first attaches); codec,
// if non-raw, is proposed for the stream (see codec.go — the returned name
// is what the server settled on, "" against an old server); dl, if
// non-zero, bounds the whole handshake.
func attach(dialer Dialer, addr string, key string, role uint8, opts Options, prev int, codec string, dl time.Time) (net.Conn, *bufio.Reader, *bufio.Writer, int, int, string, error) {
	conn, err := dialer.Dial(addr)
	if err != nil {
		return nil, nil, nil, 0, 0, "", fmt.Errorf("gridbuffer: dial %s: %w", addr, err)
	}
	if !dl.IsZero() {
		conn.SetDeadline(dl)
	}
	bw := bufio.NewWriter(conn)
	e := wire.NewEncoder()
	e.String(key).U8(role)
	encodeOptions(e, opts)
	e.I64(int64(prev))
	if codec != "" && codec != wire.CodecRaw {
		e.String(codec)
	}
	if err := wire.WriteFrame(bw, msgAttach, e.Bytes()); err != nil {
		conn.Close()
		return nil, nil, nil, 0, 0, "", err
	}
	if err := bw.Flush(); err != nil {
		conn.Close()
		return nil, nil, nil, 0, 0, "", err
	}
	br := bufio.NewReader(conn)
	typ, resp, err := wire.ReadFrame(br)
	if err != nil {
		conn.Close()
		return nil, nil, nil, 0, 0, "", err
	}
	// A stream-setup shed means the service is at its stream limit: the
	// attach-level retry policy waits out the hint and redials.
	if err := admit.CheckStatus("gridbuffer", typ, resp); err != nil {
		conn.Close()
		return nil, nil, nil, 0, 0, "", err
	}
	d := wire.NewDecoder(resp)
	readerID := int(d.I64())
	blockSize := int(d.U32())
	// A codec-capable server echoes its choice; an old server's response
	// ends at blockSize, which means the stream is raw.
	chosen := ""
	if d.Err() == nil && d.Remaining() > 0 {
		chosen = d.String()
	}
	if err := d.Err(); err != nil {
		conn.Close()
		return nil, nil, nil, 0, 0, "", retry.Permanent(err)
	}
	if !dl.IsZero() {
		conn.SetDeadline(time.Time{})
	}
	return conn, br, bw, readerID, blockSize, chosen, nil
}

// newCodecState turns the server's negotiated codec name into a
// connection's codec state (inactive for ""/"raw").
func newCodecState(chosen string) (*wire.CodecBuf, error) {
	codec, err := wire.ForName(chosen)
	if err != nil {
		return nil, retry.Permanent(fmt.Errorf("gridbuffer: server chose %w", err))
	}
	return &wire.CodecBuf{Codec: codec}, nil
}

// NewWriter attaches to (or creates) the buffer key on the service at addr
// and returns a Writer.
func NewWriter(dialer Dialer, addr string, clock simclock.Clock, key string, opts Options, wopts WriterOptions) (*Writer, error) {
	codecName := wopts.Codec
	if wopts.ConnPerCall {
		// Conn-per-call data connections skip the Attach exchange, so there
		// is nowhere to negotiate; the paper's SOAP discipline stays raw.
		codecName = ""
	}
	var conn net.Conn
	var br *bufio.Reader
	var bw *bufio.Writer
	var blockSize int
	var chosen string
	err := wopts.Retry.Do("gb.attach", func(int) error {
		var err error
		conn, br, bw, _, blockSize, chosen, err = attach(dialer, addr, key, roleWriter, opts, -1, codecName, wopts.Retry.Deadline())
		return err
	})
	if err != nil {
		return nil, err
	}
	cs, err := newCodecState(chosen)
	if err != nil {
		conn.Close()
		return nil, err
	}
	win := wopts.Window
	if win <= 0 {
		win = DefaultWriterWindow
	}
	batch := wopts.Batch
	if batch <= 0 {
		batch = 1
	}
	if batch > win && !wopts.ConnPerCall {
		batch = win // a batch larger than the window could never be acknowledged
	}
	w := &Writer{
		clock:       clock,
		conn:        conn,
		bw:          bw,
		key:         key,
		blockSize:   blockSize,
		retry:       wopts.Retry,
		connPerCall: wopts.ConnPerCall,
		dialer:      dialer,
		addr:        addr,
		opts:        opts,
		codecName:   codecName,
		cs:          cs,
		window:      simclock.NewSemaphore(clock, int64(win)),
		winSize:     int64(win),
		done:        simclock.NewEvent(clock),
		batch:       batch,
	}
	if w.connPerCall {
		// The construction connection only created the buffer; each block
		// travels on its own connection, so close it now.
		conn.Close()
		w.conn, w.bw = nil, nil
		return w, nil
	}
	w.spawnAckLoop(br)
	return w, nil
}

func (w *Writer) spawnAckLoop(br *bufio.Reader) {
	w.mu.Lock()
	gen := w.gen
	w.mu.Unlock()
	window, done := w.window, w.done
	w.clock.Go("gridbuffer-writer-acks", func() { w.ackLoop(br, window, done, gen) })
}

// oneCall opens a fresh connection, performs a single request/response,
// closes it and waits out the teardown — the 2004 connection-per-call SOAP
// discipline. Per call that is a TCP handshake, one request round trip,
// and a FIN handshake before the stack reuses the port (2004 SOAP clients
// closed politely and serially), i.e. ~3 round trips per block. The
// teardown is charged as the measured connection-setup time, so it scales
// with the actual link rather than a constant.
func (w *Writer) oneCall(reqType uint8, payload []byte) error {
	t0 := w.clock.Now()
	conn, err := w.dialer.Dial(w.addr)
	if err != nil {
		return fmt.Errorf("gridbuffer: dial %s: %w", w.addr, err)
	}
	setup := w.clock.Now().Sub(t0)
	defer func() {
		conn.Close()
		w.clock.Sleep(setup)
	}()
	if dl := w.retry.Deadline(); !dl.IsZero() {
		conn.SetDeadline(dl)
	}
	if err := wire.WriteFrame(conn, reqType, payload); err != nil {
		return err
	}
	typ, resp, err := wire.ReadFrame(bufio.NewReader(conn))
	if err != nil {
		return err
	}
	return admit.CheckStatus("gridbuffer", typ, resp)
}

// ackLoop consumes Put acknowledgements, releasing window permits. One loop
// runs per connection generation; window/done belong to that generation, so
// a stale loop can never release permits of a successor connection.
func (w *Writer) ackLoop(br *bufio.Reader, window *simclock.Semaphore, done *simclock.Event, gen uint64) {
	var frameBuf []byte
	for {
		typ, payload, err := wire.ReadFrameInto(br, &frameBuf)
		if err != nil {
			w.noteTransport(gen, err)
			window.Release(w.winSize)
			done.Set()
			return
		}
		switch typ {
		case msgPutResp:
			w.popAcked(gen, 1)
			window.Release(1)
		case msgPutBatchResp:
			n := int64(wire.NewDecoder(payload).U32())
			if n < 1 {
				n = 1
			}
			w.popAcked(gen, n)
			window.Release(n)
		case msgCloseWriteResp:
			done.Set()
			return
		case msgError:
			w.failServer(errors.New("gridbuffer: " + wire.NewDecoder(payload).String()))
			window.Release(w.winSize)
			done.Set()
			return
		default:
			w.failServer(fmt.Errorf("gridbuffer: unexpected writer frame %d", typ))
			window.Release(w.winSize)
			done.Set()
			return
		}
	}
}

// popAcked drops the n oldest unacknowledged blocks (acks arrive in send
// order) if the acknowledging connection is still current.
func (w *Writer) popAcked(gen uint64, n int64) {
	w.mu.Lock()
	if w.gen == gen {
		if n > int64(len(w.unacked)) {
			n = int64(len(w.unacked))
		}
		w.unacked = w.unacked[n:]
	}
	w.mu.Unlock()
}

// noteTransport records a transport fault seen by the gen ackLoop: with a
// retry policy the connection is marked broken (the app goroutine
// reconnects); without one it is the writer's terminal error.
func (w *Writer) noteTransport(gen uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.gen != gen {
		return // a stale loop observing its own connection being replaced
	}
	if w.retry.Enabled() {
		w.broken = true
		return
	}
	if w.err == nil {
		w.err = err
	}
}

// failServer records a server-reported error: permanent in every mode.
func (w *Writer) failServer(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// fail records the first error and unblocks anything waiting.
func (w *Writer) fail(err error) {
	w.failServer(err)
	w.window.Release(w.winSize) // unblock senders
	w.done.Set()
}

// Err reports the first permanent error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *Writer) isBroken() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.broken
}

func (w *Writer) setBroken() {
	w.mu.Lock()
	w.broken = true
	w.mu.Unlock()
}

// BlockSize reports the negotiated block size.
func (w *Writer) BlockSize() int { return w.blockSize }

// Write implements io.Writer: bytes accumulate into blocks; each full block
// is sent as soon as the in-flight window permits.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errors.New("gridbuffer: write after close")
	}
	if err := w.Err(); err != nil {
		return 0, err
	}
	total := 0
	for len(p) > 0 {
		space := w.blockSize - len(w.partial)
		n := len(p)
		if n > space {
			n = space
		}
		w.partial = append(w.partial, p[:n]...)
		p = p[n:]
		total += n
		if len(w.partial) == w.blockSize {
			if err := w.sendBlock(); err != nil {
				return total, err
			}
		}
	}
	w.total += int64(total)
	return total, nil
}

// sendBlock queues the filled partial block as the next pending batch
// entry; the batch is flushed to the wire once full (batch == 1 flushes
// every block, the historical protocol).
func (w *Writer) sendBlock() error {
	idx := w.nextIdx
	w.nextIdx++
	data := append([]byte(nil), w.partial...)
	w.partial = w.partial[:0]
	w.pending = append(w.pending, wblock{idx: idx, data: data})
	if len(w.pending) < w.batch {
		return nil
	}
	return w.flushPending()
}

// putFrame encodes blocks as the smallest frame carrying them: the
// historical one-block PUT (byte-identical to the pre-batch protocol), or a
// PUT-BATCH.
func putFrame(e *wire.Encoder, key string, blocks []wblock) uint8 {
	if len(blocks) == 1 {
		e.String(key).I64(blocks[0].idx).Bytes32(blocks[0].data)
		return msgPut
	}
	encodePutBatch(e, key, blocks)
	return msgPutBatch
}

// flushPending delivers the accumulated batch over the configured
// transport discipline.
func (w *Writer) flushPending() error {
	if len(w.pending) == 0 {
		return nil
	}
	blocks := w.pending
	w.pending = nil

	if w.connPerCall {
		e := wire.NewEncoder()
		typ := putFrame(e, w.key, blocks)
		err := w.retry.Do("gb.put", func(int) error { return w.oneCall(typ, e.Bytes()) })
		if err != nil {
			w.fail(err)
			return err
		}
		return nil
	}
	if !w.retry.Enabled() {
		return w.sendOnce(blocks)
	}

	appended := false
	n := int64(len(blocks))
	first := blocks[0].idx
	return w.retry.Do("gb.put", func(int) error {
		if err := w.Err(); err != nil {
			return retry.Permanent(err)
		}
		if w.isBroken() {
			if err := w.reconnect(); err != nil {
				return err
			}
		}
		if appended {
			// The reconnect above replayed these blocks with the rest of
			// the unacknowledged window.
			return nil
		}
		t := w.retry.Timeout()
		if !w.window.AcquireTimeout(n, t) {
			w.setBroken()
			return fmt.Errorf("gridbuffer: put %d: no acknowledgement within %v", first, t)
		}
		if w.isBroken() {
			// The ackLoop died while we waited; the permits belong to the
			// dead window. Reconnect on the next attempt.
			return errors.New("gridbuffer: connection broken")
		}
		w.mu.Lock()
		w.unacked = append(w.unacked, blocks...)
		w.mu.Unlock()
		appended = true
		return w.writeBlocks(blocks)
	})
}

// sendOnce is the historical fail-fast send path.
func (w *Writer) sendOnce(blocks []wblock) error {
	w.window.Acquire(int64(len(blocks)))
	if err := w.Err(); err != nil {
		return err
	}
	w.mu.Lock()
	w.unacked = append(w.unacked, blocks...)
	w.mu.Unlock()
	if err := writePutFrame(w.bw, w.key, blocks, w.cs); err != nil {
		w.fail(err)
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.fail(err)
		return err
	}
	return nil
}

// writeBlocks sends one put frame on the persistent connection under the
// per-attempt write deadline, marking the connection broken on failure.
func (w *Writer) writeBlocks(blocks []wblock) error {
	if t := w.retry.Timeout(); t > 0 {
		w.conn.SetWriteDeadline(w.clock.Now().Add(t))
	}
	if err := writePutFrame(w.bw, w.key, blocks, w.cs); err != nil {
		w.setBroken()
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.setBroken()
		return err
	}
	return nil
}

// writeFrame sends one frame on the persistent connection under the
// per-attempt write deadline, marking the connection broken on failure.
func (w *Writer) writeFrame(typ uint8, payload []byte) error {
	if t := w.retry.Timeout(); t > 0 {
		w.conn.SetWriteDeadline(w.clock.Now().Add(t))
	}
	if err := wire.WriteFrame(w.bw, typ, payload); err != nil {
		w.setBroken()
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.setBroken()
		return err
	}
	return nil
}

// reconnect re-attaches the writer, replays the unacknowledged block
// window, and restarts the ack loop. Only the application goroutine calls
// it.
func (w *Writer) reconnect() error {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
	conn, br, bw, _, _, chosen, err := attach(w.dialer, w.addr, w.key, roleWriter, w.opts, -1, w.codecName, w.retry.Deadline())
	if err != nil {
		return err
	}
	// The replacement connection renegotiates from scratch — a failover to
	// an older server build downgrades the stream to raw mid-flight.
	cs, err := newCodecState(chosen)
	if err != nil {
		conn.Close()
		return err
	}
	w.mu.Lock()
	w.gen++
	w.broken = false
	replay := make([]wblock, len(w.unacked))
	copy(replay, w.unacked)
	w.mu.Unlock()
	if t := w.retry.Timeout(); t > 0 {
		conn.SetWriteDeadline(w.clock.Now().Add(t))
	}
	for start := 0; start < len(replay); start += w.batch {
		end := start + w.batch
		if end > len(replay) {
			end = len(replay)
		}
		if err := writePutFrame(bw, w.key, replay[start:end], cs); err != nil {
			conn.Close()
			w.setBroken()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		conn.Close()
		w.setBroken()
		return err
	}
	w.conn, w.bw, w.cs = conn, bw, cs
	avail := w.winSize - int64(len(replay))
	if avail < 0 {
		avail = 0
	}
	w.window = simclock.NewSemaphore(w.clock, avail)
	w.done = simclock.NewEvent(w.clock)
	w.spawnAckLoop(br)
	return nil
}

// Close flushes the tail block, waits for all acknowledgements, marks
// end-of-stream and releases the connection.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if len(w.partial) > 0 {
		if err := w.sendBlock(); err != nil {
			return err
		}
	}
	if err := w.flushPending(); err != nil {
		return err
	}
	if w.connPerCall {
		e := wire.NewEncoder()
		e.String(w.key).I64(w.total)
		err := w.retry.Do("gb.close", func(int) error { return w.oneCall(msgCloseWrite, e.Bytes()) })
		if err != nil {
			return err
		}
		return w.Err()
	}
	if !w.retry.Enabled() {
		return w.closeOnce()
	}
	defer func() {
		if w.conn != nil {
			w.conn.Close()
		}
	}()
	t := w.retry.Timeout()
	return w.retry.Do("gb.close", func(int) error {
		if err := w.Err(); err != nil {
			return retry.Permanent(err)
		}
		if w.isBroken() {
			if err := w.reconnect(); err != nil {
				return err
			}
		}
		// Wait for every outstanding Put to be acknowledged.
		if !w.window.AcquireTimeout(w.winSize, t) {
			w.setBroken()
			return errors.New("gridbuffer: close: outstanding puts not acknowledged in time")
		}
		if w.isBroken() {
			return errors.New("gridbuffer: connection broken")
		}
		if err := w.Err(); err != nil {
			return retry.Permanent(err)
		}
		if err := w.writeFrame(msgCloseWrite, wire.NewEncoder().String(w.key).I64(w.total).Bytes()); err != nil {
			return err
		}
		if !w.done.WaitTimeout(t) {
			w.setBroken()
			return errors.New("gridbuffer: close-write not acknowledged in time")
		}
		if err := w.Err(); err != nil {
			return retry.Permanent(err)
		}
		if w.isBroken() {
			return errors.New("gridbuffer: connection broken")
		}
		return nil
	})
}

// closeOnce is the historical fail-fast close path.
func (w *Writer) closeOnce() error {
	defer w.conn.Close()
	// Wait for every outstanding Put to be acknowledged.
	w.window.Acquire(w.winSize)
	if err := w.Err(); err != nil {
		return err
	}
	e := wire.NewEncoder()
	e.String(w.key).I64(w.total)
	if err := wire.WriteFrame(w.bw, msgCloseWrite, e.Bytes()); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	w.done.Wait()
	return w.Err()
}

// Reader streams a Grid Buffer to an application, prefetching blocks ahead
// of the read position. It implements io.ReadSeekCloser. Reads of blocks
// the writer has not produced yet stall (in simulated or real time) until
// the data arrives — the paper's blocking-read semantics.
//
// With a retry policy set (ReaderOptions.Retry), the reader survives
// transport faults: blocks stay resident on the server until the reader
// acknowledges delivery (piggybacked on the next request), so after a
// reconnect it resumes at the current position with nothing lost. The
// per-attempt timeout then also bounds how long the reader tolerates
// silence, so a producer that stalls longer than the policy's attempt
// budget is indistinguishable from a dead one — raise the timeout for
// slow producers.
type Reader struct {
	clock     simclock.Clock
	conn      net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer
	key       string
	blockSize int
	readerID  int
	depth     int
	retry     retry.Policy
	dialer    Dialer
	addr      string
	opts      Options
	broken    bool

	codecName string
	cs        *wire.CodecBuf
	frameBuf  []byte

	inflight []int64 // block indices with pending responses, in order
	nextReq  int64
	acked    int64 // every block < acked has been delivered to the app

	pos    int64
	cur    []byte // remainder of the current block at pos
	total  int64  // stream length, or best upper bound so far (-1 unknown)
	closed bool
}

// ReaderOptions tunes a Reader beyond the buffer Options.
type ReaderOptions struct {
	// Depth is the prefetch pipeline depth (0 selects DefaultReaderDepth).
	Depth int
	// Codec names the block codec proposed at attach ("" or "raw" keeps the
	// stream raw and the attach bytes identical to the historical protocol).
	Codec string
	// Retry is the resilience policy; the zero policy fails fast.
	Retry retry.Policy
}

// NewReader attaches to (or creates) the buffer key on the service at addr.
func NewReader(dialer Dialer, addr string, clock simclock.Clock, key string, opts Options, ropts ReaderOptions) (*Reader, error) {
	var conn net.Conn
	var br *bufio.Reader
	var bw *bufio.Writer
	var readerID, blockSize int
	var chosen string
	err := ropts.Retry.Do("gb.attach", func(int) error {
		var err error
		conn, br, bw, readerID, blockSize, chosen, err = attach(dialer, addr, key, roleReader, opts, -1, ropts.Codec, ropts.Retry.Deadline())
		return err
	})
	if err != nil {
		return nil, err
	}
	cs, err := newCodecState(chosen)
	if err != nil {
		conn.Close()
		return nil, err
	}
	depth := ropts.Depth
	if depth <= 0 {
		depth = DefaultReaderDepth
	}
	return &Reader{
		clock: clock, conn: conn, br: br, bw: bw,
		key: key, blockSize: blockSize, readerID: readerID,
		depth: depth, retry: ropts.Retry,
		dialer: dialer, addr: addr, opts: opts,
		codecName: ropts.Codec, cs: cs,
		total: -1,
	}, nil
}

// noteTotal tightens the known stream length. EOF responses give upper
// bounds (idx*blockSize); a short block gives the exact length. min() of
// all observations converges on the true total.
func (r *Reader) noteTotal(v int64) {
	if r.total < 0 || v < r.total {
		r.total = v
	}
}

// BlockSize reports the negotiated block size.
func (r *Reader) BlockSize() int { return r.blockSize }

// reconnect re-attaches the reader under its previous identity and resets
// the request pipeline; the next fill re-requests from the current
// position, whose blocks the server retained (they were never
// acknowledged).
func (r *Reader) reconnect() error {
	if r.conn != nil {
		r.conn.Close()
	}
	conn, br, bw, id, _, chosen, err := attach(r.dialer, r.addr, r.key, roleReader, r.opts, r.readerID, r.codecName, r.retry.Deadline())
	if err != nil {
		return err
	}
	cs, err := newCodecState(chosen)
	if err != nil {
		conn.Close()
		return err
	}
	r.conn, r.br, r.bw = conn, br, bw
	r.cs = cs
	r.readerID = id
	r.inflight = nil
	r.broken = false
	return nil
}

// sendWindow queues one windowed GET for blocks [first, first+count),
// acknowledging everything already delivered. The server streams one
// response frame per block as each becomes available, so the reader keeps
// count requests outstanding at the cost of a single request frame.
func (r *Reader) sendWindow(first int64, count int) error {
	if t := r.retry.Timeout(); t > 0 {
		r.conn.SetWriteDeadline(r.clock.Now().Add(t))
	}
	e := wire.NewEncoder()
	encodeGetWin(e, getWinReq{
		key: r.key, readerID: r.readerID,
		first: first, count: count, ackBelow: r.acked,
	})
	if err := wire.WriteFrame(r.bw, msgGetWin, e.Bytes()); err != nil {
		return err
	}
	if err := r.bw.Flush(); err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		r.inflight = append(r.inflight, first+int64(i))
	}
	return nil
}

// recvOne consumes the response for inflight[0].
func (r *Reader) recvOne() (idx int64, data []byte, eof bool, err error) {
	if len(r.inflight) == 0 {
		return 0, nil, false, errors.New("gridbuffer: no in-flight request")
	}
	idx = r.inflight[0]
	if t := r.retry.Timeout(); t > 0 {
		r.conn.SetReadDeadline(r.clock.Now().Add(t))
	}
	typ, payload, err := wire.ReadFrameInto(r.br, &r.frameBuf)
	if err != nil {
		return idx, nil, false, err
	}
	r.inflight = r.inflight[1:]
	switch typ {
	case msgGetWinResp:
		d := wire.NewDecoder(payload)
		gotIdx := d.I64()
		eof = d.Bool()
		raw := d.Bytes32()
		if err := d.Err(); err != nil {
			return idx, nil, false, err
		}
		block, derr := r.cs.Dec(raw)
		if derr != nil {
			return idx, nil, false, retry.Permanent(derr)
		}
		data = append([]byte(nil), block...)
		if gotIdx != idx {
			return idx, nil, false, retry.Permanent(fmt.Errorf("gridbuffer: response for block %d, expected %d", gotIdx, idx))
		}
		return idx, data, eof, nil
	case msgError:
		return idx, nil, false, admit.CheckStatus("gridbuffer", typ, payload)
	default:
		return idx, nil, false, retry.Permanent(fmt.Errorf("gridbuffer: unexpected reader frame %d", typ))
	}
}

// drain consumes every outstanding response (used before repositioning),
// keeping whatever stream-length information they carry.
func (r *Reader) drain() error {
	for len(r.inflight) > 0 {
		gotIdx, data, eof, err := r.recvOne()
		if err != nil {
			return err
		}
		if eof {
			r.noteTotal(gotIdx * int64(r.blockSize))
		} else if len(data) < r.blockSize {
			r.noteTotal(gotIdx*int64(r.blockSize) + int64(len(data)))
		}
	}
	return nil
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, errors.New("gridbuffer: read after close")
	}
	if !r.retry.Enabled() {
		return r.readOnce(p)
	}
	var n int
	var eof bool
	err := r.retry.Do("gb.get", func(int) error {
		if r.broken {
			if err := r.reconnect(); err != nil {
				return err
			}
		}
		nn, rerr := r.readOnce(p)
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				n, eof = nn, true
				return nil
			}
			if !retry.IsPermanent(rerr) {
				r.broken = true
			}
			return rerr
		}
		n = nn
		return nil
	})
	if err != nil {
		return 0, err
	}
	if eof {
		return n, io.EOF
	}
	return n, nil
}

// readOnce is one fill attempt against the current connection.
func (r *Reader) readOnce(p []byte) (int, error) {
	bs := int64(r.blockSize)
	for len(r.cur) == 0 {
		if r.total >= 0 && r.pos >= r.total {
			return 0, io.EOF
		}
		idx := r.pos / bs
		// Everything below the block holding pos has been delivered; the
		// next request acknowledges it (monotonic: a backward seek re-reads
		// from the cache file, exactly as with eager consumption).
		if idx > r.acked {
			r.acked = idx
		}
		// Keep the pipeline aligned with the read position.
		if len(r.inflight) > 0 && r.inflight[0] != idx {
			if err := r.drain(); err != nil {
				return 0, err
			}
		}
		if len(r.inflight) == 0 {
			r.nextReq = idx
		}
		if want := r.depth - len(r.inflight); want > 0 {
			count := 0
			for count < want {
				if r.total >= 0 && (r.nextReq+int64(count))*bs >= r.total {
					break
				}
				count++
			}
			if count > 0 {
				if err := r.sendWindow(r.nextReq, count); err != nil {
					return 0, err
				}
				r.nextReq += int64(count)
			}
		}
		if len(r.inflight) == 0 {
			// Nothing requestable below the known end: the position must be
			// at or past it.
			return 0, io.EOF
		}
		gotIdx, data, eof, err := r.recvOne()
		if err != nil {
			return 0, err
		}
		if eof {
			r.noteTotal(gotIdx * bs) // upper bound; loop re-checks pos
			continue
		}
		if len(data) < r.blockSize {
			// A short block is the tail: its end is the exact total.
			r.noteTotal(gotIdx*bs + int64(len(data)))
		}
		off := r.pos - gotIdx*bs
		if off < 0 || off >= int64(len(data)) {
			continue // stale block for an old position; re-check
		}
		r.cur = data[off:]
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	r.pos += int64(n)
	return n, nil
}

// Seek implements io.Seeker. Seeking relative to the end requires the
// stream end to be known (the reader has already observed EOF).
func (r *Reader) Seek(offset int64, whence int) (int64, error) {
	if r.closed {
		return 0, errors.New("gridbuffer: seek after close")
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = r.pos
	case io.SeekEnd:
		return 0, errors.New("gridbuffer: seek from end of a stream is not supported")
	default:
		return 0, fmt.Errorf("gridbuffer: bad whence %d", whence)
	}
	npos := base + offset
	if npos < 0 {
		return 0, errors.New("gridbuffer: negative seek")
	}
	if npos != r.pos {
		r.cur = nil
		r.pos = npos
	}
	return npos, nil
}

// Close detaches the reader (best effort) and releases the connection.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	e := wire.NewEncoder()
	e.String(r.key).I64(int64(r.readerID))
	wire.WriteFrame(r.bw, msgDetach, e.Bytes())
	r.bw.Flush()
	return r.conn.Close()
}
