package gridftp

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"griddles/internal/admit"
	"griddles/internal/retry"
	"griddles/internal/simnet"
	"griddles/internal/vfs"
)

func TestBulkShedControlAdmitted(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
	vfs.WriteFile(r.fs, "data.bin", []byte("payload"))
	r.v.Run(func() {
		l, err := r.net.Host("srv").Listen("srv:6000")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		srv := NewServer(r.fs, r.v)
		// Limit 2 with half reserved for control: one bulk slot total.
		ctl := admit.New(admit.Options{Service: "ftp", MaxConcurrent: 2, ControlShare: 0.5, Clock: r.v})
		srv.SetAdmission(ctl)
		r.v.Go("gridftp-serve", func() { srv.Serve(l) })

		// Saturate the bulk share.
		rel, err := ctl.Acquire("other", admit.Bulk)
		if err != nil {
			t.Fatalf("pre-acquire: %v", err)
		}

		// Bulk transfer sheds...
		var buf bytes.Buffer
		_, err = r.client.Fetch("data.bin", 0, -1, &buf)
		var shed *admit.ShedError
		if !errors.As(err, &shed) {
			t.Fatalf("fetch err = %v, want ShedError", err)
		}
		// ...while control traffic rides the reserved slot.
		size, exists, err := r.client.Stat("data.bin")
		if err != nil || !exists || size != 7 {
			t.Fatalf("stat under bulk saturation: %d %v %v", size, exists, err)
		}

		// With retry, the shed transfer completes once the slot frees.
		r.client.SetRetry(retry.Policy{
			MaxAttempts: 5, BaseDelay: 50 * time.Millisecond,
			AttemptTimeout: time.Second, Clock: r.v,
		})
		r.v.Go("releaser", func() {
			r.v.Sleep(120 * time.Millisecond)
			rel()
		})
		buf.Reset()
		n, err := r.client.Fetch("data.bin", 0, -1, &buf)
		if err != nil || n != 7 || buf.String() != "payload" {
			t.Fatalf("fetch after release: n=%d err=%v body=%q", n, err, buf.String())
		}
	})
}
