package gridftp

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"testing"
	"testing/quick"
	"time"

	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/vfs"
)

// rig is a server on host "srv" plus a client on host "app".
type rig struct {
	v      *simclock.Virtual
	net    *simnet.Network
	fs     *vfs.MemFS
	client *Client
}

func newRig(spec simnet.LinkSpec) *rig {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	n.SetLinkBoth("app", "srv", spec)
	fs := vfs.NewMemFS()
	return &rig{v: v, net: n, fs: fs, client: NewClient(n.Host("app"), "srv:6000", v)}
}

// start must be called inside v.Run.
func (r *rig) start(t *testing.T) {
	l, err := r.net.Host("srv").Listen("srv:6000")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(r.fs, r.v)
	r.v.Go("gridftp-serve", func() { srv.Serve(l) })
}

func TestStat(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
	vfs.WriteFile(r.fs, "data.bin", make([]byte, 12345))
	r.v.Run(func() {
		r.start(t)
		size, exists, err := r.client.Stat("data.bin")
		if err != nil {
			t.Fatal(err)
		}
		if !exists || size != 12345 {
			t.Errorf("stat = %d,%v", size, exists)
		}
		_, exists, err = r.client.Stat("missing")
		if err != nil {
			t.Fatal(err)
		}
		if exists {
			t.Error("missing file reported as existing")
		}
	})
}

func TestRemoteSequentialRead(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
	want := make([]byte, 200_000)
	rand.New(rand.NewSource(1)).Read(want)
	vfs.WriteFile(r.fs, "big", want)
	r.v.Run(func() {
		r.start(t)
		f, err := r.client.Open("big", os.O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		got, err := io.ReadAll(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Error("remote read corrupted data")
		}
	})
}

func TestRemoteReadAtRandomAccess(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
	want := []byte("abcdefghijklmnopqrstuvwxyz")
	vfs.WriteFile(r.fs, "f", want)
	r.v.Run(func() {
		r.start(t)
		f, err := r.client.Open("f", os.O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, 5)
		if _, err := f.ReadAt(buf, 10); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "klmno" {
			t.Errorf("ReadAt = %q", buf)
		}
		// Read past EOF.
		n, err := f.ReadAt(buf, 24)
		if err != io.EOF || n != 2 || string(buf[:n]) != "yz" {
			t.Errorf("tail ReadAt = %d %q %v", n, buf[:n], err)
		}
		if _, err := f.ReadAt(buf, 100); err != io.EOF {
			t.Errorf("past-EOF ReadAt err = %v", err)
		}
	})
}

// TestRemoteReadAtPastReadCap: a ReadAt larger than one read request may
// carry is split into capped requests and still fills the whole buffer, and
// a tail read across the cap ends in io.EOF with the bytes that exist.
func TestRemoteReadAtPastReadCap(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
	want := make([]byte, maxRead+maxRead/2)
	rand.New(rand.NewSource(3)).Read(want)
	vfs.WriteFile(r.fs, "big", want)
	r.v.Run(func() {
		r.start(t)
		f, err := r.client.Open("big", os.O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, maxRead+1)
		n, err := f.ReadAt(buf, 7)
		if err != nil || n != len(buf) || !bytes.Equal(buf, want[7:7+len(buf)]) {
			t.Fatalf("ReadAt over the cap = %d, %v (match %v)", n, err, bytes.Equal(buf[:n], want[7:7+n]))
		}
		off := int64(len(want) - maxRead - 10)
		buf = make([]byte, len(want))
		n, err = f.ReadAt(buf, off)
		if err != io.EOF || n != maxRead+10 || !bytes.Equal(buf[:n], want[off:]) {
			t.Fatalf("tail ReadAt over the cap = %d, %v", n, err)
		}
	})
}

func TestRemoteSeekAndReRead(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
	vfs.WriteFile(r.fs, "f", []byte("0123456789"))
	r.v.Run(func() {
		r.start(t)
		f, _ := r.client.Open("f", os.O_RDONLY)
		defer f.Close()
		io.ReadAll(f)
		if _, err := f.Seek(3, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		rest, _ := io.ReadAll(f)
		if string(rest) != "3456789" {
			t.Errorf("after seek: %q", rest)
		}
	})
}

func TestRemoteWrite(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
	r.v.Run(func() {
		r.start(t)
		f, err := r.client.Open("out", os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("hello "))
		f.Write([]byte("remote"))
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		got, _ := vfs.ReadFile(r.fs, "out")
		if string(got) != "hello remote" {
			t.Errorf("server file = %q", got)
		}
	})
}

func TestOpenMissingFileFails(t *testing.T) {
	r := newRig(simnet.LinkSpec{})
	r.v.Run(func() {
		r.start(t)
		if _, err := r.client.Open("absent", os.O_RDONLY); err == nil {
			t.Error("open of missing remote file succeeded")
		}
		// The connection survives the error for subsequent requests.
		if _, _, err := r.client.Stat("absent"); err != nil {
			t.Errorf("stat after failed open: %v", err)
		}
	})
}

func TestFetchWholeAndRange(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
	want := make([]byte, 300_000)
	rand.New(rand.NewSource(2)).Read(want)
	vfs.WriteFile(r.fs, "blob", want)
	r.v.Run(func() {
		r.start(t)
		var buf bytes.Buffer
		n, err := r.client.Fetch("blob", 0, -1, &buf)
		if err != nil || n != int64(len(want)) {
			t.Fatalf("fetch: n=%d err=%v", n, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Error("fetch corrupted data")
		}
		buf.Reset()
		n, err = r.client.Fetch("blob", 1000, 5000, &buf)
		if err != nil || n != 5000 {
			t.Fatalf("range fetch: n=%d err=%v", n, err)
		}
		if !bytes.Equal(buf.Bytes(), want[1000:6000]) {
			t.Error("range fetch wrong slice")
		}
	})
}

func TestFetchMissingFails(t *testing.T) {
	r := newRig(simnet.LinkSpec{})
	r.v.Run(func() {
		r.start(t)
		if _, err := r.client.Fetch("absent", 0, -1, io.Discard); err == nil {
			t.Error("fetch of missing file succeeded")
		}
	})
}

func TestPutRoundTrip(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
	want := make([]byte, 150_000)
	rand.New(rand.NewSource(3)).Read(want)
	r.v.Run(func() {
		r.start(t)
		n, err := r.client.Put("uploaded", bytes.NewReader(want))
		if err != nil || n != int64(len(want)) {
			t.Fatalf("put: n=%d err=%v", n, err)
		}
		got, _ := vfs.ReadFile(r.fs, "uploaded")
		if !bytes.Equal(got, want) {
			t.Error("put corrupted data")
		}
	})
}

func TestCopyInSingleAndParallel(t *testing.T) {
	for _, streams := range []int{1, 4} {
		r := newRig(simnet.LinkSpec{Latency: 5 * time.Millisecond})
		want := make([]byte, 1<<20)
		rand.New(rand.NewSource(4)).Read(want)
		vfs.WriteFile(r.fs, "src", want)
		local := vfs.NewMemFS()
		r.v.Run(func() {
			r.start(t)
			n, err := r.client.CopyIn("src", local, "dst", streams)
			if err != nil || n != int64(len(want)) {
				t.Fatalf("streams=%d: n=%d err=%v", streams, n, err)
			}
			got, _ := vfs.ReadFile(local, "dst")
			if !bytes.Equal(got, want) {
				t.Errorf("streams=%d: copy corrupted data", streams)
			}
		})
	}
}

func TestParallelCopyIsFasterOnLatencyBoundLink(t *testing.T) {
	elapsed := func(streams int) time.Duration {
		r := newRig(simnet.LinkSpec{Latency: 50 * time.Millisecond})
		vfs.WriteFile(r.fs, "src", make([]byte, 2<<20))
		local := vfs.NewMemFS()
		r.v.Run(func() {
			r.start(t)
			if _, err := r.client.CopyIn("src", local, "dst", streams); err != nil {
				t.Fatal(err)
			}
		})
		return r.v.Elapsed()
	}
	one, four := elapsed(1), elapsed(4)
	if four >= one {
		t.Errorf("parallel copy (%v) not faster than single stream (%v)", four, one)
	}
}

func TestCopyOut(t *testing.T) {
	r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
	local := vfs.NewMemFS()
	want := []byte("stage this out")
	vfs.WriteFile(local, "result", want)
	r.v.Run(func() {
		r.start(t)
		n, err := r.client.CopyOut(local, "result", "staged/result")
		if err != nil || n != int64(len(want)) {
			t.Fatalf("copyout: n=%d err=%v", n, err)
		}
		got, _ := vfs.ReadFile(r.fs, "staged/result")
		if !bytes.Equal(got, want) {
			t.Error("copyout corrupted data")
		}
	})
}

func TestCopyInEmptyFile(t *testing.T) {
	r := newRig(simnet.LinkSpec{})
	vfs.WriteFile(r.fs, "empty", nil)
	local := vfs.NewMemFS()
	r.v.Run(func() {
		r.start(t)
		n, err := r.client.CopyIn("empty", local, "dst", 3)
		if err != nil || n != 0 {
			t.Fatalf("n=%d err=%v", n, err)
		}
		if !vfs.Exists(local, "dst") {
			t.Error("empty destination not created")
		}
	})
}

func TestCopyInMissingFails(t *testing.T) {
	r := newRig(simnet.LinkSpec{})
	local := vfs.NewMemFS()
	r.v.Run(func() {
		r.start(t)
		if _, err := r.client.CopyIn("absent", local, "dst", 1); err == nil {
			t.Error("copy of missing file succeeded")
		}
	})
}

func TestReadAheadReducesRoundTrips(t *testing.T) {
	// With 20ms one-way latency, reading 64 KiB in 4 KiB application reads
	// should cost ~1 round trip with 64 KiB read-ahead versus 16 with
	// read-ahead disabled.
	run := func(readAhead int) time.Duration {
		r := newRig(simnet.LinkSpec{Latency: 20 * time.Millisecond})
		vfs.WriteFile(r.fs, "f", make([]byte, 64*1024))
		r.v.Run(func() {
			r.start(t)
			f, err := r.client.Open("f", os.O_RDONLY)
			if err != nil {
				t.Fatal(err)
			}
			f.ReadAhead = readAhead
			buf := make([]byte, 4096)
			for {
				if _, err := f.Read(buf); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
			}
			f.Close()
		})
		return r.v.Elapsed()
	}
	with, without := run(64*1024), run(1)
	if with*3 > without {
		t.Errorf("read-ahead %v vs none %v: expected >3x improvement", with, without)
	}
}

func TestClientDialFailure(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	v.Run(func() {
		c := NewClient(n.Host("app"), "nowhere:1", v)
		if _, _, err := c.Stat("f"); err == nil {
			t.Error("stat against missing server succeeded")
		}
		if _, err := c.Open("f", os.O_RDONLY); err == nil {
			t.Error("open against missing server succeeded")
		}
	})
}

// Property: a remote sequential read of any content equals the content, for
// random read-ahead sizes and reader chunk sizes.
func TestRemoteReadEqualsContentProperty(t *testing.T) {
	f := func(seed int64, sizeRaw uint16, raRaw uint8, chunkRaw uint8) bool {
		size := int(sizeRaw)%50000 + 1
		want := make([]byte, size)
		rand.New(rand.NewSource(seed)).Read(want)
		r := newRig(simnet.LinkSpec{Latency: time.Millisecond})
		vfs.WriteFile(r.fs, "f", want)
		ok := true
		r.v.Run(func() {
			l, err := r.net.Host("srv").Listen("srv:6000")
			if err != nil {
				ok = false
				return
			}
			r.v.Go("serve", func() { NewServer(r.fs, r.v).Serve(l) })
			fh, err := r.client.Open("f", os.O_RDONLY)
			if err != nil {
				ok = false
				return
			}
			defer fh.Close()
			fh.ReadAhead = int(raRaw)%8000 + 1
			buf := make([]byte, int(chunkRaw)%2000+1)
			var got []byte
			for {
				n, err := fh.Read(buf)
				got = append(got, buf[:n]...)
				if err == io.EOF {
					break
				}
				if err != nil {
					ok = false
					return
				}
			}
			ok = bytes.Equal(got, want)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
