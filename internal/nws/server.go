package nws

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"time"

	"griddles/internal/admit"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// Protocol message types.
const (
	msgRecord       = 1
	msgRecordResp   = 2
	msgForecast     = 3
	msgForecastResp = 4
	msgEstimate     = 5
	msgEstimateResp = 6
)

// Server exposes a Service over the framed binary protocol, playing the
// role of the central NWS memory/forecaster that sensors report into and
// schedulers query.
type Server struct {
	svc   *Service
	clock simclock.Clock
}

// NewServer returns a Server for svc.
func NewServer(svc *Service, clock simclock.Clock) *Server {
	return &Server{svc: svc, clock: clock}
}

// Serve accepts connections until l is closed, through the shared
// admit.Serve loop: temporary accept failures are ridden out with backoff.
func (s *Server) Serve(l net.Listener) {
	admit.Serve(l, s.clock, nil, "nws", func() admit.Handler {
		return admit.Handler{Handle: s.dispatch}
	})
}

func (s *Server) dispatch(w *bufio.ReadWriter, typ uint8, payload []byte) error {
	d := wire.NewDecoder(payload)
	switch typ {
	case msgRecord:
		src, dst, metric := d.String(), d.String(), d.String()
		v := math.Float64frombits(d.U64())
		if err := d.Err(); err != nil {
			return admit.WriteError(w, err)
		}
		s.svc.Record(src, dst, metric, s.clock.Now(), v)
		return wire.WriteFrame(w, msgRecordResp, nil)

	case msgForecast:
		src, dst, metric := d.String(), d.String(), d.String()
		if err := d.Err(); err != nil {
			return admit.WriteError(w, err)
		}
		v, ok := s.svc.Forecast(src, dst, metric)
		e := wire.NewEncoder()
		e.Bool(ok).U64(math.Float64bits(v))
		return wire.WriteFrame(w, msgForecastResp, e.Bytes())

	case msgEstimate:
		src, dst := d.String(), d.String()
		n := d.I64()
		if err := d.Err(); err != nil {
			return admit.WriteError(w, err)
		}
		dur, ok := s.svc.EstimateTransfer(src, dst, n)
		e := wire.NewEncoder()
		e.Bool(ok).I64(int64(dur))
		return wire.WriteFrame(w, msgEstimateResp, e.Bytes())

	default:
		return admit.WriteError(w, fmt.Errorf("nws: unknown message type %d", typ))
	}
}

// Client queries (and reports into) a remote NWS server.
type Client struct {
	dialer Dialer
	addr   string
	clock  simclock.Clock

	mu   *simclock.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// NewClient returns a Client for the NWS at addr.
func NewClient(dialer Dialer, addr string, clock simclock.Clock) *Client {
	return &Client{dialer: dialer, addr: addr, clock: clock, mu: simclock.NewMutex(clock)}
}

func (c *Client) roundTrip(reqType uint8, payload []byte) (uint8, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		conn, err := c.dialer.Dial(c.addr)
		if err != nil {
			return 0, nil, fmt.Errorf("nws: dial %s: %w", c.addr, err)
		}
		c.conn, c.br, c.bw = conn, bufio.NewReader(conn), bufio.NewWriter(conn)
	}
	drop := func() {
		c.conn.Close()
		c.conn, c.br, c.bw = nil, nil, nil
	}
	if err := wire.WriteFrame(c.bw, reqType, payload); err != nil {
		drop()
		return 0, nil, err
	}
	if err := c.bw.Flush(); err != nil {
		drop()
		return 0, nil, err
	}
	typ, resp, err := wire.ReadFrame(c.br)
	if err != nil {
		drop()
		return 0, nil, err
	}
	if err := admit.CheckStatus("nws", typ, resp); err != nil {
		return 0, nil, err
	}
	return typ, resp, nil
}

// Record reports one observation to the server (sensors use this).
func (c *Client) Record(src, dst, metric string, v float64) error {
	e := wire.NewEncoder()
	e.String(src).String(dst).String(metric).U64(math.Float64bits(v))
	_, _, err := c.roundTrip(msgRecord, e.Bytes())
	return err
}

// Forecast queries the adaptive forecast for a link metric.
func (c *Client) Forecast(src, dst, metric string) (float64, bool, error) {
	e := wire.NewEncoder()
	e.String(src).String(dst).String(metric)
	typ, resp, err := c.roundTrip(msgForecast, e.Bytes())
	if err != nil {
		return 0, false, err
	}
	if typ != msgForecastResp {
		return 0, false, fmt.Errorf("nws: unexpected reply %d", typ)
	}
	d := wire.NewDecoder(resp)
	ok := d.Bool()
	v := math.Float64frombits(d.U64())
	return v, ok, d.Err()
}

// EstimateTransfer queries the predicted time to move n bytes src->dst.
func (c *Client) EstimateTransfer(src, dst string, n int64) (time.Duration, bool, error) {
	e := wire.NewEncoder()
	e.String(src).String(dst).I64(n)
	typ, resp, err := c.roundTrip(msgEstimate, e.Bytes())
	if err != nil {
		return 0, false, err
	}
	if typ != msgEstimateResp {
		return 0, false, fmt.Errorf("nws: unexpected reply %d", typ)
	}
	d := wire.NewDecoder(resp)
	ok := d.Bool()
	dur := time.Duration(d.I64())
	return dur, ok, d.Err()
}

// Close releases the shared connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.br, c.bw = nil, nil, nil
	}
	return nil
}
