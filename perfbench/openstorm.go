package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"griddles/internal/core"
	"griddles/internal/gns"
	"griddles/internal/gridftp"
	"griddles/internal/simclock"
	"griddles/internal/vfs"
)

// open-storm: two FMs, each in a closed loop of OPEN -> read to EOF ->
// CLOSE on small mode-3 files, with one op in five creating and writing an
// output file instead. The fixed cost of an OPEN dominates.
const (
	stormInputs   = 8192 // 16x gns.DefaultCacheMaxEntries
	stormOutputs  = 1024
	stormFileSize = 4096
	stormClients  = 2
	stormZipfS    = 1.1
	// stormTraceEvery: a traced pass records the spans of every 10th op;
	// all of them would be ~1.7M spans and 1 GB of memory in 10 s.
	stormTraceEvery = 10
)

func stormInput(i int) string  { return fmt.Sprintf("in/%05d", i) }
func stormOutput(j int) string { return fmt.Sprintf("out/%04d", j) }

// Payload streams: inputs are 0..stormInputs-1; version v of output j is
// above them.
func stormOutputStream(j, v int) uint64 {
	return uint64(stormInputs) + uint64(v)*stormOutputs + uint64(j)
}

// stormWorld is one GNS server and one file server on loopback, seeded,
// with two FMs attached.
type stormWorld struct {
	clientFMs
	lb     loopback
	ftpFS  *vfs.MemFS
	inputs []byte // input i is inputs[i*stormFileSize:][:stormFileSize]
}

// stormPayloads generates every input of a seed once per process, so that
// set-up times the program seeding its file server, not the generator.
func stormPayloads(seed int64) []byte {
	inputs := make([]byte, stormInputs*stormFileSize)
	for i := 0; i < stormInputs; i++ {
		fill(inputs[i*stormFileSize:(i+1)*stormFileSize], seed, uint64(i))
	}
	return inputs
}

func (w *stormWorld) input(i int) []byte {
	return w.inputs[i*stormFileSize : (i+1)*stormFileSize]
}

// newStormWorld builds a world whose file server stores in memory: on a
// disk, creating 8192 files and truncating outputs would make the workload
// measure the file system's metadata journal instead of the OPEN path.
func newStormWorld(cfg config, inputs []byte) (*stormWorld, error) {
	w := &stormWorld{ftpFS: vfs.NewMemFS(), inputs: inputs}
	clock := simclock.Real{}
	for i := 0; i < stormInputs; i++ {
		if err := vfs.WriteFile(w.ftpFS, stormInput(i), w.input(i)); err != nil {
			return nil, err
		}
	}
	var gnsCounts, ftpCounts *svcCounters
	if cfg.rec != nil {
		gnsCounts, ftpCounts = cfg.rec.wire["gns"], cfg.rec.wire["gridftp"]
	}
	store := gns.NewStore(clock)
	gnsAddr, err := w.lb.start(gnsCounts, func(l net.Listener) { gns.NewServer(store, clock).Serve(l) })
	if err != nil {
		return nil, err
	}
	ftpAddr, err := w.lb.start(ftpCounts, func(l net.Listener) { gridftp.NewServer(w.ftpFS, clock).Serve(l) })
	if err != nil {
		w.close()
		return nil, err
	}
	for i := 0; i < stormInputs; i++ {
		store.Set("*", stormInput(i), gns.Mapping{Mode: gns.ModeRemote, RemoteHost: ftpAddr, RemotePath: stormInput(i)})
	}
	for j := 0; j < stormOutputs; j++ {
		store.Set("*", stormOutput(j), gns.Mapping{Mode: gns.ModeRemote, RemoteHost: ftpAddr, RemotePath: stormOutput(j)})
	}
	svc := map[string]*svcCounters{gnsAddr: gnsCounts, ftpAddr: ftpCounts}
	for c := 0; c < stormClients; c++ {
		tk, err := w.add(cfg.rec, fmt.Sprintf("fm%d", c), vfs.NewMemFS(), gnsAddr, svc)
		if err != nil {
			w.close()
			return nil, err
		}
		if tk != nil {
			tk.every = stormTraceEvery
		}
	}
	return w, nil
}

func (w *stormWorld) close() {
	w.clientFMs.close()
	w.lb.close()
}

// stormWindows is how many groups open-storm's timed phase is cut into.
const stormWindows = 10

// stormClient is what one client goroutine measured.
type stormClient struct {
	ops       []stormOp
	attempted int
	failed    []error
	bad       []string
	// version is the last successfully written version of each output
	// this client owns; 0 means never written, -1 unknown after a failure.
	version map[int]int
}

// stormOp is one op that succeeded.
type stormOp struct {
	end time.Duration // since the timed phase started
	us  float64
}

// runOpenStorm builds the world setupRounds times, keeps the last, and runs
// both clients until the deadline.
func runOpenStorm(cfg config) (*result, error) {
	r := &result{}
	inputs := stormPayloads(cfg.seed)
	w, err := buildWorld(r, func(int) (*stormWorld, error) { return newStormWorld(cfg, inputs) })
	if err != nil {
		return nil, err
	}

	m := startMeter()
	deadline := m.start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	clients := make([]stormClient, stormClients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clients[c] = w.client(cfg.seed, c, m.start, deadline)
		}()
	}
	wg.Wait()
	m.stop(r)

	r.Groups = make([]group, stormWindows)
	window := time.Duration(r.WallS * float64(time.Second) / stormWindows)
	for i := range r.Groups {
		r.Groups[i].WallS = window.Seconds()
	}
	for c := range clients {
		cl := &clients[c]
		r.Attempted += cl.attempted
		for _, op := range cl.ops {
			g := &r.Groups[min(int(op.end/window), stormWindows-1)]
			g.OpUS = append(g.OpUS, op.us)
			g.Bytes += stormFileSize
		}
		for _, err := range cl.failed {
			r.opFailed(err)
		}
		r.Mismatches = append(r.Mismatches, cl.bad...)
		w.verifyOutputs(cfg.seed, cl.version, r)
	}
	w.close()

	sum := sha256.Sum256(inputs)
	r.Checksums = map[string]string{"inputs": hex.EncodeToString(sum[:])}
	if cfg.rec != nil {
		a := cfg.rec.analyze("storm.op", r.Attempted)
		r.Layers = a.layers
		for k, v := range registryLayers(w.registries()) {
			r.Layers[k] = v
		}
		r.Mismatches = append(r.Mismatches, a.mismatches...)
	}
	return r, nil
}

// client runs one closed loop until the deadline.
func (w *stormWorld) client(seed int64, c int, start, deadline time.Time) stormClient {
	fm, tk := w.fms[c], w.trackers[c]
	rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
	zipf := rand.NewZipf(rng, stormZipfS, 1, stormInputs-1)
	out := stormClient{version: map[int]int{}}
	got := make([]byte, 2*stormFileSize)
	want := make([]byte, stormFileSize)
	for time.Now().Before(deadline) {
		out.attempted++
		if rng.Intn(5) == 0 {
			j := 2*rng.Intn(stormOutputs/2) + c // outputs are owned by one client
			v := max(out.version[j], 0) + 1
			fill(want, seed, stormOutputStream(j, v))
			lat, err := w.writeOp(fm, tk, stormOutput(j), want)
			if err != nil {
				out.failed = append(out.failed, err)
				out.version[j] = -1
				continue
			}
			out.version[j] = v
			out.ops = append(out.ops, stormOp{time.Since(start), lat})
			continue
		}
		i := int(zipf.Uint64())
		lat, n, err := w.readOp(fm, tk, stormInput(i), got)
		if err != nil {
			out.failed = append(out.failed, err)
			continue
		}
		if d := firstDiff(got[:n], w.input(i)); d != "" {
			out.failed = append(out.failed, fmt.Errorf("read %s: mismatch", stormInput(i)))
			out.bad = append(out.bad, fmt.Sprintf("open-storm read %s: %s", stormInput(i), d))
			continue
		}
		out.ops = append(out.ops, stormOp{time.Since(start), lat})
	}
	return out
}

// readOp opens path, reads it to EOF in stormFileSize reads and closes it.
func (w *stormWorld) readOp(fm *core.Multiplexer, tk *tracker, path string, buf []byte) (float64, int, error) {
	op := tk.startOp("storm.op")
	start := time.Now()
	p := tk.begin("core.open", true)
	f, err := fm.Open(path)
	tk.end(p)
	if err != nil {
		op.s.Failed = true
		tk.end(op)
		return 0, 0, err
	}
	p = tk.begin("core.read", true)
	n := 0
	for err == nil {
		if n == len(buf) {
			err = fmt.Errorf("read %s: longer than %d bytes", path, len(buf))
			break
		}
		var k int
		k, err = f.Read(buf[n:min(n+stormFileSize, len(buf))])
		n += k
	}
	if err == io.EOF {
		err = nil
	}
	tk.end(p)
	p = tk.begin("core.close", true)
	cerr := f.Close()
	tk.end(p)
	lat := float64(time.Since(start)) / 1e3
	if err == nil {
		err = cerr
	}
	op.s.Mode, op.s.Dir, op.s.Bytes, op.s.Failed = "remote", "read", int64(n), err != nil
	tk.end(op)
	return lat, n, err
}

// writeOp creates path, writes data and closes it.
func (w *stormWorld) writeOp(fm *core.Multiplexer, tk *tracker, path string, data []byte) (float64, error) {
	op := tk.startOp("storm.op")
	start := time.Now()
	p := tk.begin("core.open", true)
	f, err := fm.Create(path)
	tk.end(p)
	if err != nil {
		op.s.Failed = true
		tk.end(op)
		return 0, err
	}
	p = tk.begin("core.write", true)
	_, err = f.Write(data)
	tk.end(p)
	p = tk.begin("core.close", true)
	cerr := f.Close()
	tk.end(p)
	lat := float64(time.Since(start)) / 1e3
	if err == nil {
		err = cerr
	}
	op.s.Mode, op.s.Dir, op.s.Bytes, op.s.Failed = "remote", "write", int64(len(data)), err != nil
	tk.end(op)
	return lat, err
}

// verifyOutputs compares each output the client last wrote successfully
// with what the file server holds.
func (w *stormWorld) verifyOutputs(seed int64, versions map[int]int, r *result) {
	want := make([]byte, stormFileSize)
	for j, v := range versions {
		if v <= 0 {
			continue
		}
		got, err := vfs.ReadFile(w.ftpFS, stormOutput(j))
		if err != nil {
			r.mismatch("open-storm output %s: %v", stormOutput(j), err)
			continue
		}
		fill(want, seed, stormOutputStream(j, v))
		if !bytes.Equal(got, want) {
			r.mismatch("open-storm output %s version %d: %s", stormOutput(j), v, firstDiff(got, want))
		}
	}
}
