package replica

import (
	"bufio"
	"fmt"
	"net"

	"griddles/internal/admit"
	"griddles/internal/simclock"
	"griddles/internal/wire"
)

// Protocol message types.
const (
	msgLookup         = 1
	msgLookupResp     = 2
	msgRegister       = 3
	msgRegisterResp   = 4
	msgUnregister     = 5
	msgUnregisterResp = 6
	msgLogicals       = 7
	msgLogicalsResp   = 8
)

// Server exposes a Catalog over the framed binary protocol (the role the
// Globus Replica Catalogue service plays in the paper).
type Server struct {
	cat   *Catalog
	clock simclock.Clock
}

// NewServer returns a Server for cat.
func NewServer(cat *Catalog, clock simclock.Clock) *Server {
	return &Server{cat: cat, clock: clock}
}

// Serve accepts connections until l is closed, through the shared
// admit.Serve loop: temporary accept failures are ridden out with backoff.
func (s *Server) Serve(l net.Listener) {
	admit.Serve(l, s.clock, nil, "replica", func() admit.Handler {
		return admit.Handler{Handle: s.dispatch}
	})
}

func encodeLocation(e *wire.Encoder, l Location) {
	e.String(l.Host).String(l.Addr).String(l.Path)
}

func decodeLocation(d *wire.Decoder) Location {
	return Location{Host: d.String(), Addr: d.String(), Path: d.String()}
}

func (s *Server) dispatch(w *bufio.ReadWriter, typ uint8, payload []byte) error {
	d := wire.NewDecoder(payload)
	switch typ {
	case msgLookup:
		logical := d.String()
		if err := d.Err(); err != nil {
			return admit.WriteError(w, err)
		}
		locs := s.cat.Lookup(logical)
		e := wire.NewEncoder()
		e.U32(uint32(len(locs)))
		for _, l := range locs {
			encodeLocation(e, l)
		}
		return wire.WriteFrame(w, msgLookupResp, e.Bytes())

	case msgRegister:
		logical := d.String()
		loc := decodeLocation(d)
		if err := d.Err(); err != nil {
			return admit.WriteError(w, err)
		}
		s.cat.Register(logical, loc)
		return wire.WriteFrame(w, msgRegisterResp, nil)

	case msgUnregister:
		logical := d.String()
		loc := decodeLocation(d)
		if err := d.Err(); err != nil {
			return admit.WriteError(w, err)
		}
		s.cat.Unregister(logical, loc)
		return wire.WriteFrame(w, msgUnregisterResp, nil)

	case msgLogicals:
		e := wire.NewEncoder()
		e.StringSlice(s.cat.Logicals())
		return wire.WriteFrame(w, msgLogicalsResp, e.Bytes())

	default:
		return admit.WriteError(w, fmt.Errorf("replica: unknown message type %d", typ))
	}
}

// Dialer opens connections to service addresses.
type Dialer interface {
	Dial(addr string) (net.Conn, error)
}

// Client is the network client for a catalogue Server.
type Client struct {
	dialer Dialer
	addr   string
	clock  simclock.Clock

	mu   *simclock.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// NewClient returns a Client for the catalogue at addr.
func NewClient(dialer Dialer, addr string, clock simclock.Clock) *Client {
	return &Client{dialer: dialer, addr: addr, clock: clock, mu: simclock.NewMutex(clock)}
}

func (c *Client) roundTrip(reqType uint8, payload []byte) (uint8, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		conn, err := c.dialer.Dial(c.addr)
		if err != nil {
			return 0, nil, fmt.Errorf("replica: dial %s: %w", c.addr, err)
		}
		c.conn = conn
		c.br = bufio.NewReader(conn)
		c.bw = bufio.NewWriter(conn)
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
	if err := admit.CheckStatus("replica", typ, resp); err != nil {
		return 0, nil, err
	}
	return typ, resp, nil
}

// Lookup reports the replicas of logical.
func (c *Client) Lookup(logical string) ([]Location, error) {
	typ, resp, err := c.roundTrip(msgLookup, wire.NewEncoder().String(logical).Bytes())
	if err != nil {
		return nil, err
	}
	if typ != msgLookupResp {
		return nil, fmt.Errorf("replica: unexpected reply %d", typ)
	}
	d := wire.NewDecoder(resp)
	n := d.U32()
	locs := make([]Location, 0, n)
	for i := uint32(0); i < n; i++ {
		locs = append(locs, decodeLocation(d))
	}
	return locs, d.Err()
}

// Register adds a replica.
func (c *Client) Register(logical string, loc Location) error {
	e := wire.NewEncoder().String(logical)
	encodeLocation(e, loc)
	_, _, err := c.roundTrip(msgRegister, e.Bytes())
	return err
}

// Unregister removes a replica.
func (c *Client) Unregister(logical string, loc Location) error {
	e := wire.NewEncoder().String(logical)
	encodeLocation(e, loc)
	_, _, err := c.roundTrip(msgUnregister, e.Bytes())
	return err
}

// Logicals lists all registered logical names.
func (c *Client) Logicals() ([]string, error) {
	typ, resp, err := c.roundTrip(msgLogicals, nil)
	if err != nil {
		return nil, err
	}
	if typ != msgLogicalsResp {
		return nil, fmt.Errorf("replica: unexpected reply %d", typ)
	}
	d := wire.NewDecoder(resp)
	names := d.StringSlice()
	return names, d.Err()
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

// Lookuper is the read interface the File Multiplexer needs; Catalog and
// Client both satisfy it.
type Lookuper interface {
	Lookup(logical string) ([]Location, error)
}

// CatalogLookuper adapts Catalog's infallible Lookup to Lookuper.
type CatalogLookuper struct{ *Catalog }

// Lookup implements Lookuper.
func (c CatalogLookuper) Lookup(logical string) ([]Location, error) {
	return c.Catalog.Lookup(logical), nil
}

var _ Lookuper = (*Client)(nil)
var _ Lookuper = CatalogLookuper{}
