package gridbuffer

import (
	"errors"
	"testing"
	"time"

	"griddles/internal/admit"
	"griddles/internal/retry"
	"griddles/internal/simnet"
)

func TestAttachShedThenRetrySucceeds(t *testing.T) {
	b := newBrig(simnet.LinkSpec{Latency: time.Millisecond})
	b.v.Run(func() {
		l, err := b.net.Host("buf").Listen(b.addr)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		srv := NewServer(b.reg, b.v)
		// One stream slot, no queue, no latency target: a static per-stream
		// cap, held from Attach to connection close.
		ctl := admit.New(admit.Options{Service: "buf", MaxConcurrent: 1, ControlShare: -1, Clock: b.v})
		srv.SetAdmission(ctl)
		b.v.Go("gb-serve", func() { srv.Serve(l) })

		w, err := NewWriter(b.net.Host("w"), b.addr, b.v, "k1", Options{}, WriterOptions{})
		if err != nil {
			t.Fatalf("first writer: %v", err)
		}

		// The second stream sheds at Attach — mid-stream traffic of the
		// first is never disturbed.
		_, err = NewWriter(b.net.Host("w"), b.addr, b.v, "k2", Options{}, WriterOptions{})
		var shed *admit.ShedError
		if !errors.As(err, &shed) {
			t.Fatalf("second attach err = %v, want ShedError", err)
		}

		if _, err := w.Write([]byte("hello")); err != nil {
			t.Fatalf("write on admitted stream: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		// The writer's connection is gone; its slot frees and a retrying
		// attach gets in.
		w2, err := NewWriter(b.net.Host("w"), b.addr, b.v, "k2", Options{}, WriterOptions{
			Retry: retry.Policy{
				MaxAttempts: 5, BaseDelay: 50 * time.Millisecond,
				AttemptTimeout: time.Second, Clock: b.v,
			},
		})
		if err != nil {
			t.Fatalf("attach after release: %v", err)
		}
		if err := w2.Close(); err != nil {
			t.Fatalf("close second writer: %v", err)
		}
	})
}
