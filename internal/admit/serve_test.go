package admit

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"griddles/internal/retry"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/wire"
)

// The toy protocol the loop tests serve: an echo request, a streamed
// upload (head, data frames, end) answered with its data-frame count, and
// an attach that takes a connection-scoped slot.
const (
	tEcho     = 1
	tEchoResp = 2
	tPut      = 3
	tPutData  = 4
	tPutEnd   = 5
	tPutResp  = 6
	tAttach   = 7
	tFail     = 8
)

func toyAdmission(typ uint8) Admission {
	switch typ {
	case tPut:
		return Admission{Class: Bulk, StreamEnd: tPutEnd}
	case tAttach:
		return Admission{Class: Bulk, Scope: PerConn}
	}
	return Admission{Class: Bulk}
}

// toyHandler serves the toy protocol; closes counts connection cleanups.
func toyHandler(closes *int) Handler {
	return Handler{
		Admit: toyAdmission,
		Handle: func(rw *bufio.ReadWriter, typ uint8, payload []byte) error {
			switch typ {
			case tEcho, tAttach:
				return wire.WriteFrame(rw, tEchoResp, payload)
			case tPut:
				var n uint32
				var buf []byte
				for {
					typ, _, err := wire.ReadFrameInto(rw.Reader, &buf)
					if err != nil {
						return err
					}
					if typ == tPutEnd {
						return wire.WriteFrame(rw, tPutResp, wire.NewEncoder().U32(n).Bytes())
					}
					n++
				}
			case tFail:
				return errors.New("handler gave up")
			}
			return WriteError(rw, errors.New("toy: unknown message type"))
		},
		Close: func() { *closes++ },
	}
}

// toyServer runs Serve on a simulated host and dials clients to it.
type toyServer struct {
	n      *simnet.Network
	closes int
}

func startToy(t *testing.T, v *simclock.Virtual, adm *Controller) *toyServer {
	t.Helper()
	s := &toyServer{n: simnet.New(v)}
	s.n.SetLinkBoth("app", "srv", simnet.LinkSpec{Latency: time.Millisecond})
	l, err := s.n.Host("srv").Listen("srv:1")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	v.Go("toy-serve", func() {
		Serve(l, v, adm, "toy", func() Handler { return toyHandler(&s.closes) })
	})
	return s
}

// toyConn is one client connection to the toy server.
type toyConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func (s *toyServer) dial(t *testing.T) *toyConn {
	t.Helper()
	conn, err := s.n.Host("app").Dial("srv:1")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return &toyConn{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// send writes frames without waiting for a reply.
func (c *toyConn) send(typ uint8, payload []byte) {
	c.t.Helper()
	if err := wire.WriteFrame(c.conn, typ, payload); err != nil {
		c.t.Fatalf("send %d: %v", typ, err)
	}
}

// call sends one request and returns the reply frame.
func (c *toyConn) call(typ uint8, payload []byte) (uint8, []byte, error) {
	c.t.Helper()
	c.send(typ, payload)
	return wire.ReadFrame(c.br)
}

// echo asserts a request of type typ is answered with its own payload.
func (c *toyConn) echo(typ uint8, msg string) {
	c.t.Helper()
	rtyp, resp, err := c.call(typ, []byte(msg))
	if err != nil || rtyp != tEchoResp || string(resp) != msg {
		c.t.Fatalf("echo %q = %d %q %v (status %v)", msg, rtyp, resp, err, CheckStatus("toy", rtyp, resp))
	}
}

// shed asserts a request of type typ is answered with a decodable shed.
func (c *toyConn) shed(typ uint8) {
	c.t.Helper()
	rtyp, resp, err := c.call(typ, nil)
	if err != nil || rtyp != MsgShed {
		c.t.Fatalf("reply = %d %v, want a shed", rtyp, err)
	}
	var shed *ShedError
	if !errors.As(CheckStatus("toy", rtyp, resp), &shed) || shed.RetryAfter() <= 0 {
		c.t.Fatalf("shed frame decodes to %v", CheckStatus("toy", rtyp, resp))
	}
}

// oneSlot is a controller with a single slot, no queue and no control
// reserve: anything past one admitted request sheds at once.
func oneSlot(v simclock.Clock) *Controller {
	return New(Options{Service: "toy", MaxConcurrent: 1, ControlShare: -1, Clock: v})
}

func TestServeReturnsOnClosedListener(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		n := simnet.New(v)
		l, err := n.Host("srv").Listen("srv:1")
		if err != nil {
			t.Fatal(err)
		}
		done := simclock.NewEvent(v)
		v.Go("toy-serve", func() {
			Serve(l, v, nil, "toy", func() Handler { return Handler{} })
			done.Set()
		})
		v.Sleep(time.Millisecond)
		l.Close()
		if !done.WaitTimeout(time.Second) {
			t.Fatal("Serve did not return after its listener closed")
		}
	})
}

func TestServeConnLimitClosesConnection(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		adm := New(Options{Service: "toy", MaxConcurrent: 4, MaxConns: 1, Clock: v})
		s := startToy(t, v, adm)
		first := s.dial(t)
		first.echo(tEcho, "held")
		second := s.dial(t)
		if _, _, err := second.call(tEcho, []byte("over")); err == nil {
			t.Fatal("connection over MaxConns was served")
		}
		first.conn.Close()
		v.Sleep(10 * time.Millisecond)
		s.dial(t).echo(tEcho, "after close")
	})
}

func TestServeShedKeepsConnectionUsable(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		adm := oneSlot(v)
		s := startToy(t, v, adm)
		rel, err := adm.Acquire("other", Bulk)
		if err != nil {
			t.Fatal(err)
		}
		c := s.dial(t)
		c.shed(tEcho)
		rel()
		c.echo(tEcho, "next request")
		if adm.Inflight() != 0 {
			t.Fatalf("inflight after a per-request reply = %d", adm.Inflight())
		}
	})
}

func TestServeDrainsShedUpload(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		adm := oneSlot(v)
		s := startToy(t, v, adm)
		rel, err := adm.Acquire("other", Bulk)
		if err != nil {
			t.Fatal(err)
		}
		c := s.dial(t)
		c.send(tPut, nil)
		for i := 0; i < 3; i++ {
			c.send(tPutData, []byte("chunk"))
		}
		c.send(tPutEnd, nil)
		typ, _, err := wire.ReadFrame(c.br)
		if err != nil || typ != MsgShed {
			t.Fatalf("shed upload answered %d %v", typ, err)
		}
		rel()
		// The drained frames are gone: the next reply is to the next request.
		c.echo(tEcho, "in sync")
		c.send(tPut, nil)
		c.send(tPutData, []byte("chunk"))
		typ, resp, err := c.call(tPutEnd, nil)
		if err != nil || typ != tPutResp || wire.NewDecoder(resp).U32() != 1 {
			t.Fatalf("admitted upload answered %d %v", typ, err)
		}
	})
}

func TestServeConnScopedSlotHeldUntilClose(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		adm := oneSlot(v)
		s := startToy(t, v, adm)
		a := s.dial(t)
		a.echo(tAttach, "stream")
		a.echo(tAttach, "again") // a connection holding its slot passes free
		if adm.Inflight() != 1 {
			t.Fatalf("inflight with one attached stream = %d", adm.Inflight())
		}
		b := s.dial(t)
		b.shed(tAttach)
		a.conn.Close()
		v.Sleep(10 * time.Millisecond)
		if adm.Inflight() != 0 {
			t.Fatalf("inflight after the stream closed = %d", adm.Inflight())
		}
		b.echo(tAttach, "admitted")
	})
}

func TestServeNilControllerAdmitsEverything(t *testing.T) {
	run(t, func(v *simclock.Virtual) {
		s := startToy(t, v, nil)
		a, b := s.dial(t), s.dial(t)
		a.echo(tAttach, "a")
		b.echo(tAttach, "b")
		for i := 0; i < 8; i++ {
			a.echo(tEcho, "bulk")
		}
		// A failed request is answered; a failing handler ends the connection.
		typ, resp, err := b.call(99, nil)
		if err != nil || !retry.IsPermanent(CheckStatus("toy", typ, resp)) {
			t.Fatalf("unknown type answered %d %v", typ, err)
		}
		if _, _, err := b.call(tFail, nil); err == nil {
			t.Fatal("connection survived a handler error")
		}
		a.conn.Close()
		v.Sleep(10 * time.Millisecond)
		if s.closes != 2 {
			t.Fatalf("handler cleanups = %d, want 2", s.closes)
		}
	})
}

func TestCheckStatus(t *testing.T) {
	if err := CheckStatus("toy", tEchoResp, []byte("fine")); err != nil {
		t.Fatalf("ordinary reply = %v", err)
	}
	var shed *ShedError
	good := EncodeShed(&ShedError{Reason: "queue-full", After: 300 * time.Millisecond})
	if err := CheckStatus("toy", MsgShed, good); !errors.As(err, &shed) || shed.After != 300*time.Millisecond {
		t.Fatalf("shed frame = %v", err)
	}
	if err := CheckStatus("toy", MsgShed, []byte{1, 2}); err == nil || errors.As(err, &shed) {
		t.Fatalf("malformed shed = %v, want a decode error", err)
	}
	err := CheckStatus("toy", MsgError, wire.NewEncoder().String("boom").Bytes())
	var remote *RemoteError
	if !retry.IsPermanent(err) || !errors.As(err, &remote) || err.Error() != "toy: boom" {
		t.Fatalf("error frame = %v (permanent %v)", err, retry.IsPermanent(err))
	}
}
