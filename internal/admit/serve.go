package admit

import (
	"bufio"
	"errors"
	"io"
	"net"

	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// MsgError is the error frame type every GriddLeS service answers a failed
// request with; its payload is one string, the error text. Like MsgShed it
// leaves the connection usable.
const MsgError = 255

// Scope says how long an admitted request holds its slot.
type Scope uint8

const (
	// PerRequest admits each request on its own and releases the slot when
	// the handler returns.
	PerRequest Scope = iota
	// PerConn admits a connection's first request of the type and holds
	// that slot until the connection closes; later requests on a
	// connection holding a slot pass free. The Grid Buffer admits a stream
	// this way at its first Attach, so mid-stream requests are never shed.
	PerConn
	// Unadmitted requests are never queued or shed.
	Unadmitted
)

// Admission is how Serve admits one request type.
type Admission struct {
	Class Class
	Scope Scope
	// StreamEnd, if nonzero, marks the request as the head of an upload
	// the client streams regardless of the answer, closed by a frame of
	// this type. A shed drains the stream through it first, so the
	// connection stays usable.
	StreamEnd uint8
}

// Handler is one connection's side of a framed-RPC service under Serve.
type Handler struct {
	// Admit reports how a request of type typ is admitted; nil admits
	// every request on its own in the Control class.
	Admit func(typ uint8) Admission
	// Handle answers one admitted request on rw. payload is valid only
	// until Handle returns. A failed request is answered with WriteError;
	// a returned error closes the connection.
	Handle func(rw *bufio.ReadWriter, typ uint8, payload []byte) error
	// Close, if set, runs when the connection ends.
	Close func()
}

// Serve is the accept and request loop every framed-RPC service shares. It
// accepts connections on l until l is closed, riding out temporary accept
// failures with AcceptBackoff, and closes a connection over adm's MaxConns
// bound at once. Each connection runs on a clock goroutine named
// name+"-conn" with a Handler from newHandler: its requests are read into
// one reused buffer, admitted as the handler's Admit says, answered by
// Handle or with a MsgShed frame, and flushed once each. A nil adm admits
// everything.
func Serve(l net.Listener, clock simclock.Clock, adm *Controller, name string, newHandler func() Handler) {
	backoff := NewAcceptBackoff(clock)
	for {
		conn, err := l.Accept()
		if err != nil {
			if Temporary(err) {
				backoff.Sleep()
				continue
			}
			return
		}
		backoff.Reset()
		crel, ok := adm.AdmitConn()
		if !ok {
			conn.Close()
			continue
		}
		clock.Go(name+"-conn", func() {
			defer crel()
			serveConn(conn, adm, newHandler())
		})
	}
}

func serveConn(conn net.Conn, adm *Controller, h Handler) {
	var held func() // the PerConn slot, once taken
	defer func() {
		conn.Close()
		if h.Close != nil {
			h.Close()
		}
		if held != nil {
			held()
		}
	}()
	tenant := TenantOf(conn)
	rw := bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn))
	var buf []byte
	for {
		typ, payload, err := wire.ReadFrameInto(rw.Reader, &buf)
		if err != nil {
			return
		}
		a := Admission{Class: Control}
		if h.Admit != nil {
			a = h.Admit(typ)
		}
		release, aerr := func() {}, error(nil)
		if a.Scope == PerRequest || (a.Scope == PerConn && held == nil) {
			release, aerr = adm.Acquire(tenant, a.Class)
			if aerr == nil && a.Scope == PerConn {
				held, release = release, func() {}
			}
		}
		if aerr != nil {
			if a.StreamEnd != 0 {
				wire.DrainUntil(rw.Reader, a.StreamEnd, &buf)
			}
			err = writeRefusal(rw, aerr)
		} else {
			err = h.Handle(rw, typ, payload)
			release()
		}
		if err != nil {
			return
		}
		if err := rw.Flush(); err != nil {
			return
		}
	}
}

// writeRefusal answers a request admission refused: a shed frame, or an
// error frame for any other failure.
func writeRefusal(w io.Writer, err error) error {
	var shed *ShedError
	if errors.As(err, &shed) {
		return WriteShed(w, shed)
	}
	return WriteError(w, err)
}

// WriteError answers one request with a MsgError frame carrying err's text.
func WriteError(w io.Writer, err error) error {
	return wire.WriteFrame(w, MsgError, wire.NewEncoder().String(err.Error()).Bytes())
}
