package gns

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"griddles/internal/retry"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
)

// sniffDialer records the type of every request frame its connections
// carry, parsing the client's outbound byte stream frame by frame.
type sniffDialer struct {
	inner Dialer
	mu    sync.Mutex
	types []uint8
}

func (s *sniffDialer) Dial(addr string) (net.Conn, error) {
	conn, err := s.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &sniffConn{Conn: conn, s: s}, nil
}

type sniffConn struct {
	net.Conn
	s   *sniffDialer
	buf []byte
}

func (c *sniffConn) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	for len(c.buf) >= 5 {
		n := int(binary.BigEndian.Uint32(c.buf[:4]))
		if len(c.buf) < 5+n {
			break
		}
		c.s.mu.Lock()
		c.s.types = append(c.s.types, c.buf[4])
		c.s.mu.Unlock()
		c.buf = c.buf[5+n:]
	}
	return c.Conn.Write(p)
}

func (s *sniffDialer) take() []uint8 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.types
	s.types = nil
	return out
}

func TestClientSendsOnlyItsOwnRequestsToUnshardedServer(t *testing.T) {
	// A single-address client is a one-shard ring, but against an
	// unsharded server it must put exactly the historical request on the
	// wire for each call: no shard-map fetch, nothing extra.
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	v.Run(func() {
		srv := NewServer(NewStore(v), v)
		l, err := n.Host("gns").Listen("gns:5000")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		v.Go("gns-serve", func() { srv.Serve(l) })
		sniff := &sniffDialer{inner: n.Host("app")}
		c := NewClient(sniff, "gns:5000", v)
		defer c.Close()
		cached := NewClient(sniff, "gns:5000", v)
		defer cached.Close()
		cached.EnableCache()
		m := Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000"}

		steps := []struct {
			name string
			want uint8
			do   func() error
		}{
			{"Set", msgSet, func() error { _, err := c.Set("jagan", "A.DAT", m); return err }},
			{"Resolve", msgResolve, func() error { _, err := c.Resolve("jagan", "A.DAT"); return err }},
			{"leased Resolve", msgResolveLease, func() error { _, err := cached.Resolve("jagan", "A.DAT"); return err }},
			{"Lookup", msgLookup, func() error { _, _, err := c.Lookup("jagan", "A.DAT"); return err }},
			{"SetIfAbsent", msgSetIfAbsent, func() error { _, _, err := c.SetIfAbsent("jagan", "B.DAT", m); return err }},
			{"List", msgList, func() error { _, err := c.List(); return err }},
			{"Watch", msgWatch, func() error {
				// A.DAT's version is past 0, so the watch answers at once.
				_, changed, err := c.Watch("jagan", "A.DAT", 0, 1000)
				if err == nil && !changed {
					err = fmt.Errorf("watch since 0 reported no change")
				}
				return err
			}},
			{"Delete", msgDelete, func() error { return c.Delete("jagan", "A.DAT") }},
		}
		for _, st := range steps {
			if err := st.do(); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			if got := sniff.take(); len(got) != 1 || got[0] != st.want {
				t.Errorf("%s sent request types %v, want exactly [%d]", st.name, got, st.want)
			}
		}
	})
}

func TestClientAimedAtReplicaLandsWriteOnLeaseholder(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	v.Run(func() {
		cl := startCluster(t, v, n, "0=gns0:5000,gns0r:5000", nil)
		defer cl.close()
		c := NewClient(n.Host("app"), "gns0r:5000", v)
		defer c.Close()
		want := Mapping{Mode: ModeCopy, RemoteHost: "dione:6000"}
		if _, err := c.Set("jagan", "R.DAT", want); err != nil {
			t.Fatalf("set through the replica: %v", err)
		}
		if m, ok := cl.members["gns0:5000"].store.Lookup("jagan", "R.DAT"); !ok || m.RemoteHost != want.RemoteHost {
			t.Errorf("leaseholder store = %+v (found=%v), want the redirected write", m, ok)
		}
	})
}

func TestClientAimedAtWrongShardReroutes(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	v.Run(func() {
		cl := startCluster(t, v, n, "0=gns0:5000;1=gns1:5000", nil)
		defer cl.close()
		ring := NewRing(cl.sm)
		var path string
		for i := 0; ; i++ {
			path = fmt.Sprintf("/d/W%03d.DAT", i)
			if ring.ShardFor("jagan", path) == 1 {
				break
			}
		}
		cl.members["gns1:5000"].store.Set("jagan", path, Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000"})
		c := NewClient(n.Host("app"), "gns0:5000", v)
		defer c.Close()
		p := retry.Default(v)
		p.MaxAttempts = 2
		c.SetRetry(p)
		m, err := c.Resolve("jagan", path)
		if err != nil {
			t.Fatalf("resolve through the wrong shard: %v", err)
		}
		if m.RemoteHost != "brecca:6000" {
			t.Errorf("resolve = %+v, want the owning shard's mapping", m)
		}
	})
}

func TestShardedClientConcurrentFirstResolvesFinish(t *testing.T) {
	// Two goroutines racing a fresh client's first route both need the
	// shard map. The fetch must not hold a plain mutex across its round
	// trip: the blocked goroutine would look runnable to the virtual clock
	// and simulated time would never advance. A real-time watchdog turns
	// such a hang into a failure.
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	n.SetDefaultLink(simnet.LinkSpec{Latency: 2 * time.Millisecond})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v.Run(func() {
			cl := startCluster(t, v, n, "0=gns0:5000;1=gns1:5000", nil)
			defer cl.close()
			c := NewShardedClient(n.Host("app"), []string{"gns0:5000"}, v)
			defer c.Close()
			wg := simclock.NewWaitGroup(v)
			for i := 0; i < 2; i++ {
				path := fmt.Sprintf("/c/C%d.DAT", i)
				wg.Add(1)
				v.Go("resolver", func() {
					defer wg.Done()
					if _, err := c.Resolve("jagan", path); err != nil {
						t.Errorf("concurrent first resolve: %v", err)
					}
				})
			}
			wg.Wait()
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent first resolves hung: simulated time stopped advancing")
	}
}

func TestMemberDeadlineFollowsShardSize(t *testing.T) {
	v := simclock.NewVirtualDefault()
	c := NewClient(simnet.New(v).Host("app"), "gns:5000", v)
	if got := c.attemptTimeout(1); got != 0 {
		t.Errorf("lone member, no policy: timeout %v, want none", got)
	}
	if got := c.attemptTimeout(2); got != retry.DefaultAttemptTimeout {
		t.Errorf("two members, no policy: timeout %v, want %v", got, retry.DefaultAttemptTimeout)
	}
	p := retry.Default(v)
	p.AttemptTimeout = 3 * time.Second
	c.SetRetry(p)
	for _, size := range []int{1, 2} {
		if got := c.attemptTimeout(size); got != 3*time.Second {
			t.Errorf("%d members, policy 3s: timeout %v, want the policy's", size, got)
		}
	}
}
