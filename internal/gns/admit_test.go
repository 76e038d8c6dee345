package gns

import (
	"errors"
	"testing"
	"time"

	"griddles/internal/admit"
	"griddles/internal/retry"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
)

func TestResolveShedThenRetrySucceeds(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	n.SetLinkBoth("app", "gns", simnet.LinkSpec{Latency: time.Millisecond})
	v.Run(func() {
		store := NewStore(v)
		store.Set("jagan", "A", Mapping{Mode: ModeRemote, RemoteHost: "h:1", RemotePath: "/a"})
		srv := NewServer(store, v)
		ctl := admit.New(admit.Options{Service: "gns", MaxConcurrent: 1, ControlShare: -1, Clock: v})
		srv.SetAdmission(ctl)
		l, err := n.Host("gns").Listen("gns:5000")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		v.Go("gns-serve", func() { srv.Serve(l) })

		// Saturate the only slot.
		rel, err := ctl.Acquire("other", admit.Control)
		if err != nil {
			t.Fatalf("pre-acquire: %v", err)
		}

		// A fail-fast client surfaces the shed with its retry-after hint.
		c := NewClient(n.Host("app"), "gns:5000", v)
		defer c.Close()
		_, err = c.Resolve("jagan", "A")
		var shed *admit.ShedError
		if !errors.As(err, &shed) {
			t.Fatalf("err = %v, want ShedError", err)
		}
		if shed.RetryAfter() <= 0 {
			t.Fatalf("shed without retry-after hint: %+v", shed)
		}

		// The shed left the connection usable: with a retry policy and the
		// slot freed mid-backoff, the same request completes.
		c.SetRetry(retry.Policy{
			MaxAttempts: 5, BaseDelay: 50 * time.Millisecond,
			AttemptTimeout: time.Second, Clock: v,
		})
		v.Go("releaser", func() {
			v.Sleep(120 * time.Millisecond)
			rel()
		})
		m, err := c.Resolve("jagan", "A")
		if err != nil {
			t.Fatalf("resolve after release: %v", err)
		}
		if m.RemotePath != "/a" {
			t.Fatalf("resolve = %+v", m)
		}
	})
}
