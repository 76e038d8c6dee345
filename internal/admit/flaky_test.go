package admit_test

import (
	"bytes"
	"net"
	"testing"
	"time"

	"griddles/internal/gns"
	"griddles/internal/gridbuffer"
	"griddles/internal/gridftp"
	"griddles/internal/nws"
	"griddles/internal/objstore"
	"griddles/internal/replica"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/vfs"
)

// tempAcceptErr mimics an EMFILE-style transient accept failure.
type tempAcceptErr struct{}

func (tempAcceptErr) Error() string   { return "accept: resource temporarily unavailable" }
func (tempAcceptErr) Temporary() bool { return true }

// flakyListener fails its first `fails` Accepts with a temporary error.
type flakyListener struct {
	net.Listener
	fails int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails > 0 {
		l.fails--
		return nil, tempAcceptErr{}
	}
	return l.Listener.Accept()
}

// TestServeSurvivesFlakyAccept: every framed-RPC server rides out three
// temporary accept failures and then answers a client request.
func TestServeSurvivesFlakyAccept(t *testing.T) {
	rows := []struct {
		name  string
		serve func(v simclock.Clock, l net.Listener)
		call  func(v simclock.Clock, h *simnet.Host, addr string) error
	}{
		{"gns",
			func(v simclock.Clock, l net.Listener) { gns.NewServer(gns.NewStore(v), v).Serve(l) },
			func(v simclock.Clock, h *simnet.Host, addr string) error {
				c := gns.NewClient(h, addr, v)
				defer c.Close()
				_, err := c.Set("jagan", "A", gns.Mapping{Mode: gns.ModeLocal, LocalPath: "/a"})
				return err
			}},
		{"gridftp",
			func(v simclock.Clock, l net.Listener) { gridftp.NewServer(vfs.NewMemFS(), v).Serve(l) },
			func(v simclock.Clock, h *simnet.Host, addr string) error {
				c := gridftp.NewClient(h, addr, v)
				defer c.Close()
				_, _, err := c.Stat("data.bin")
				return err
			}},
		{"gridbuffer",
			func(v simclock.Clock, l net.Listener) {
				gridbuffer.NewServer(gridbuffer.NewRegistry(v, nil), v).Serve(l)
			},
			func(v simclock.Clock, h *simnet.Host, addr string) error {
				w, err := gridbuffer.NewWriter(h, addr, v, "k", gridbuffer.Options{}, gridbuffer.WriterOptions{})
				if err != nil {
					return err
				}
				if _, err := w.Write([]byte("hello")); err != nil {
					return err
				}
				return w.Close()
			}},
		{"objstore",
			func(v simclock.Clock, l net.Listener) { objstore.NewServer(objstore.NewStore(), v).Serve(l) },
			func(v simclock.Clock, h *simnet.Host, addr string) error {
				_, err := objstore.NewClient(h, addr, v).Put("k", bytes.NewReader([]byte("hello")))
				return err
			}},
		{"nws",
			func(v simclock.Clock, l net.Listener) { nws.NewServer(nws.NewService(), v).Serve(l) },
			func(v simclock.Clock, h *simnet.Host, addr string) error {
				c := nws.NewClient(h, addr, v)
				defer c.Close()
				return c.Record("app", "srv", nws.MetricLatency, 1)
			}},
		{"replica",
			func(v simclock.Clock, l net.Listener) { replica.NewServer(replica.NewCatalog(), v).Serve(l) },
			func(v simclock.Clock, h *simnet.Host, addr string) error {
				c := replica.NewClient(h, addr, v)
				defer c.Close()
				return c.Register("f", replica.Location{Host: "srv", Addr: "srv:6000", Path: "/f"})
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			v := simclock.NewVirtualDefault()
			n := simnet.New(v)
			n.SetLinkBoth("app", "srv", simnet.LinkSpec{Latency: time.Millisecond})
			v.Run(func() {
				l, err := n.Host("srv").Listen("srv:5000")
				if err != nil {
					t.Fatalf("listen: %v", err)
				}
				v.Go(row.name+"-serve", func() { row.serve(v, &flakyListener{Listener: l, fails: 3}) })
				if err := row.call(v, n.Host("app"), "srv:5000"); err != nil {
					t.Fatalf("request through flaky listener: %v", err)
				}
			})
		})
	}
}
