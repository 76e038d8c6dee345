package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"griddles/internal/gns"
	"griddles/internal/gridbuffer"
	"griddles/internal/gridftp"
	"griddles/internal/obs"
	"griddles/internal/simclock"
	"griddles/internal/vfs"
)

// bulk-stream: a few 64 MiB transfers over loopback per round, so the cost
// per byte dominates. Every reader runs once with 64 KiB records and once
// with a whole-file io.ReadAll.
const (
	bulkSize   = 64 << 20
	bulkRecord = 64 << 10
	// bulkMaxRounds bounds the Grid Buffer names seeded in the GNS; a
	// round takes seconds, so a run never gets near it.
	bulkMaxRounds = 64

	bulkStagePath = "stage/src"
)

// errShort reports a transfer that ended early without an error.
var errShort = errors.New("short transfer")

func bulkPipePath(round, k int) string { return fmt.Sprintf("pipe/%02d-%d", round, k) }

// bulkRemotePath is the remote write of a round. Each round writes a new
// file and removes it afterwards: truncating a file that still has data
// makes ext4 flush it, and the run would wait on the disk.
func bulkRemotePath(round int) string { return fmt.Sprintf("remote/%02d", round) }

// Payload kinds; each is the seeded base rotated by its own offset.
const (
	kindPipe = iota
	kindRemote
	kindStage
	bulkKinds
)

var kindNames = [bulkKinds]string{"pipe", "remote", "stage"}

// A side is one FM's half of a transfer: a writer, or a reader with its
// application read size (0 reads the whole file with io.ReadAll).
type side struct {
	c        int // 0 is the producer FM, 1 the consumer FM
	path     string
	mode     string
	write    bool
	readSize int
	kind     int
}

// bulkOp is one transfer; its sides run concurrently.
type bulkOp struct {
	name  string
	sides []side
}

// bulkRound lists a round as phases; the ops of a phase run concurrently,
// on at most two client goroutines, so writes run beside reads.
func bulkRound(round int) [][]bulkOp {
	remote := bulkRemotePath(round)
	return [][]bulkOp{
		{{"pipe-64k", []side{
			{c: 0, path: bulkPipePath(round, 0), mode: "buffer", write: true, kind: kindPipe},
			{c: 1, path: bulkPipePath(round, 0), mode: "buffer", readSize: bulkRecord, kind: kindPipe}}}},
		{{"pipe-readall", []side{
			{c: 0, path: bulkPipePath(round, 1), mode: "buffer", write: true, kind: kindPipe},
			{c: 1, path: bulkPipePath(round, 1), mode: "buffer", kind: kindPipe}}}},
		{
			{"remote-write", []side{{c: 0, path: remote, mode: "remote", write: true, kind: kindRemote}}},
			{"stagein-64k", []side{{c: 1, path: bulkStagePath, mode: "copy", readSize: bulkRecord, kind: kindStage}}},
		},
		{
			{"remote-read-64k", []side{{c: 0, path: remote, mode: "remote", readSize: bulkRecord, kind: kindRemote}}},
			{"stagein-readall", []side{{c: 1, path: bulkStagePath, mode: "copy", kind: kindStage}}},
		},
		// Known defect, counted rather than avoided: io.ReadAll grows its
		// buffer past wire.MaxFrame/2, the FM sends that as one mode-3 read
		// request, and the file server refuses it ("gridftp: read too
		// large"), so this op fails part way through the file.
		{{"remote-read-readall", []side{{c: 0, path: remote, mode: "remote", kind: kindRemote}}}},
	}
}

// bulkWorld is a GNS, a file server and a Grid Buffer server on loopback,
// with a producer and a consumer FM.
type bulkWorld struct {
	clientFMs
	dir     string
	lb      loopback
	base    []byte
	offset  [bulkKinds]int
	ftpFS   vfs.FS
	localFS []vfs.FS
	bufObs  *obs.Observer // the buffer server's observer on a traced pass
}

// bulkPayload generates the seeded base once per process, so that set-up
// times the program seeding its file server, not the generator.
func bulkPayload(seed int64) []byte {
	base := make([]byte, bulkSize)
	fill(base, seed, 0)
	return base
}

// newBulkWorld builds a world whose files live under dir on the OS file
// system, as the daemons keep theirs: vfs.MemFS grows a file by copying it
// on every write, which would make a 64 MiB write measure that copy.
func newBulkWorld(cfg config, dir string, base []byte) (*bulkWorld, error) {
	w := &bulkWorld{dir: dir, ftpFS: vfs.NewOSFS(filepath.Join(dir, "ftp")), base: base}
	for k := range w.offset {
		w.offset[k] = int((uint64(cfg.seed)*7+uint64(k)*331)%(bulkSize/bulkRecord)) * bulkRecord
	}
	if err := w.seedStage(); err != nil {
		return nil, err
	}

	clock := simclock.Real{}
	counts := map[string]*svcCounters{}
	if cfg.rec != nil {
		counts = cfg.rec.wire
	}
	store := gns.NewStore(clock)
	reg := gridbuffer.NewRegistry(clock, vfs.NewOSFS(filepath.Join(dir, "cache")))
	if cfg.rec != nil {
		w.bufObs = obs.New(clock)
		reg.SetObserver(w.bufObs)
	}
	gnsAddr, err := w.lb.start(counts["gns"], func(l net.Listener) { gns.NewServer(store, clock).Serve(l) })
	if err != nil {
		return nil, err
	}
	ftpAddr, err := w.lb.start(counts["gridftp"], func(l net.Listener) { gridftp.NewServer(w.ftpFS, clock).Serve(l) })
	if err != nil {
		w.close()
		return nil, err
	}
	bufAddr, err := w.lb.start(counts["gridbuffer"], func(l net.Listener) { gridbuffer.NewServer(reg, clock).Serve(l) })
	if err != nil {
		w.close()
		return nil, err
	}
	store.Set("*", bulkStagePath, gns.Mapping{Mode: gns.ModeCopy, RemoteHost: ftpAddr, RemotePath: bulkStagePath})
	for round := 0; round < bulkMaxRounds; round++ {
		remote := bulkRemotePath(round)
		store.Set("*", remote, gns.Mapping{Mode: gns.ModeRemote, RemoteHost: ftpAddr, RemotePath: remote})
		for k := 0; k < 2; k++ {
			p := bulkPipePath(round, k)
			store.Set("*", p, gns.Mapping{Mode: gns.ModeBuffer, BufferHost: bufAddr, BufferKey: "bulk/" + p})
		}
	}

	svc := map[string]*svcCounters{gnsAddr: counts["gns"], ftpAddr: counts["gridftp"], bufAddr: counts["gridbuffer"]}
	for _, machine := range []string{"producer", "consumer"} {
		local := vfs.NewOSFS(filepath.Join(dir, machine))
		if _, err := w.add(cfg.rec, machine, local, gnsAddr, svc); err != nil {
			w.close()
			return nil, err
		}
		w.localFS = append(w.localFS, local)
	}
	return w, nil
}

// seedStage puts the stage-in source on the file server.
func (w *bulkWorld) seedStage() error {
	f, err := w.ftpFS.OpenFile(bulkStagePath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	off := w.offset[kindStage]
	if _, err := f.Write(w.base[off:]); err != nil {
		return err
	}
	if _, err := f.Write(w.base[:off]); err != nil {
		return err
	}
	return f.Close()
}

func (w *bulkWorld) close() {
	w.clientFMs.close()
	w.lb.close()
	os.RemoveAll(w.dir)
}

// bulkWarmRounds is how many rounds a process runs before it builds the
// measured world. Without them the median op fell from about 97 ms in the
// first round to about 80 ms by the sixth, averaged over ten processes.
// What warms up belongs to the process, not the world: rounds run in a
// world of their own remove that trend too, and leave no spans or counters
// in the measured world.
const bulkWarmRounds = 3

// runBulkStream warms the process up, builds the world setupRounds times,
// keeps the last, and runs whole rounds until the deadline.
func runBulkStream(cfg config) (*result, error) {
	r := &result{}
	base := bulkPayload(cfg.seed)
	if err := warmUp(cfg, base, r); err != nil {
		return nil, err
	}
	w, err := buildWorld(r, func(i int) (*bulkWorld, error) {
		return newBulkWorld(cfg, filepath.Join(cfg.dir, fmt.Sprint("world", i)), base)
	})
	if err != nil {
		return nil, err
	}

	var verified [bulkKinds]bool
	m := startMeter()
	deadline := m.start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for round := 0; round < bulkMaxRounds && (round == 0 || time.Now().Before(deadline)); round++ {
		r.Groups = append(r.Groups, w.round(round, r, &verified))
	}
	m.stop(r)

	r.Checksums = map[string]string{}
	for k, ok := range verified {
		if ok {
			sum := sha256.New()
			sum.Write(w.base[w.offset[k]:])
			sum.Write(w.base[:w.offset[k]])
			r.Checksums[kindNames[k]] = hex.EncodeToString(sum.Sum(nil))
		}
	}
	w.close()
	if cfg.rec != nil {
		a := cfg.rec.analyze("", r.Attempted)
		r.Layers = a.layers
		for k, v := range registryLayers(append(w.registries(), w.bufObs.Registry())) {
			r.Layers[k] = v
		}
	}
	return r, nil
}

// warmUp runs bulkWarmRounds untimed rounds in an untraced world of its
// own. Their ops are not counted, but a byte they get wrong is.
func warmUp(cfg config, base []byte, r *result) error {
	cfg.rec = nil
	w, err := newBulkWorld(cfg, filepath.Join(cfg.dir, "warm-up"), base)
	if err != nil {
		return err
	}
	defer w.close()
	var (
		warm     result
		verified [bulkKinds]bool
	)
	for round := 0; round < bulkWarmRounds; round++ {
		w.round(round, &warm, &verified)
	}
	r.Mismatches = append(r.Mismatches, warm.Mismatches...)
	return nil
}

// round runs one round, accounts for its ops in r and returns its group.
func (w *bulkWorld) round(round int, r *result, verified *[bulkKinds]bool) group {
	// A round allocates about 2 GB; collecting before it, outside its
	// time, starts every round from the same heap, so GC pacing left over
	// from the previous round does not carry into this one.
	runtime.GC()
	start := time.Now()
	var g group
	for _, phase := range bulkRound(round) {
		w.runPhase(phase, r, &g, verified)
	}
	g.WallS = time.Since(start).Seconds()
	w.ftpFS.Remove(bulkRemotePath(round))
	return g
}

// sideResult is what one side did.
type sideResult struct {
	bytes int64
	end   time.Time
	err   error
	bad   string // how delivered bytes departed from the payload
}

// runPhase runs the ops of one phase concurrently and accounts for them.
func (w *bulkWorld) runPhase(ops []bulkOp, r *result, g *group, verified *[bulkKinds]bool) {
	type opState struct {
		root  pend
		start time.Time
		res   []sideResult
		left  atomic.Int32
	}
	states := make([]opState, len(ops))
	var wg sync.WaitGroup
	for i, op := range ops {
		st := &states[i]
		lead := w.trackers[op.sides[0].c]
		st.start = time.Now()
		st.root = lead.startOp("bulk." + op.name)
		st.res = make([]sideResult, len(op.sides))
		st.left.Store(int32(len(op.sides)))
		for j, s := range op.sides {
			tk := w.trackers[s.c]
			if j > 0 {
				tk.join(st.root)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				st.res[j] = w.runSide(s, tk)
				if st.left.Add(-1) == 0 {
					// The last side to finish ends the op; the other side's
					// goroutine is done with its tracker by then.
					lead.end(st.root)
				}
			}()
		}
	}
	wg.Wait()

	for i, op := range ops {
		st := &states[i]
		r.Attempted++
		var (
			err error
			bad string
			end time.Time
		)
		for _, res := range st.res {
			if err == nil {
				err = res.err
			}
			if bad == "" {
				bad = res.bad
			}
			if res.end.After(end) {
				end = res.end
			}
		}
		if err == nil && bad == "" && op.name == "remote-write" {
			bad = w.verifyRemote(op.sides[0].path)
		}
		switch {
		case bad != "":
			r.mismatch("bulk-stream %s: %s", op.name, bad)
			r.opFailed(fmt.Errorf("%s: payload mismatch", op.name))
		case err != nil:
			r.opFailed(fmt.Errorf("%s: %w", op.name, err))
		default:
			g.OpUS = append(g.OpUS, float64(end.Sub(st.start))/1e3)
			g.Bytes += bulkSize
			verified[op.sides[0].kind] = true
		}
	}
}

// runSide performs one side and records it as a transfer span.
func (w *bulkWorld) runSide(s side, tk *tracker) sideResult {
	x := tk.begin("xfer", true)
	var res sideResult
	if s.write {
		res = w.writeSide(s, tk)
		x.s.Dir = "write"
	} else {
		res = w.readSide(s, tk)
		x.s.Dir = "read"
	}
	x.s.Mode, x.s.Bytes, x.s.Failed = s.mode, res.bytes, res.err != nil || res.bad != ""
	tk.end(x)
	res.end = time.Now()
	if s.mode == "copy" {
		// Drop the staged copy so the next open stages in again.
		w.localFS[s.c].Remove(s.path)
	}
	return res
}

func (w *bulkWorld) writeSide(s side, tk *tracker) sideResult {
	fm := w.fms[s.c]
	p := tk.begin("core.open", true)
	f, err := fm.Create(s.path)
	tk.end(p)
	if err != nil {
		return sideResult{err: err}
	}
	p = tk.begin("core.write", true)
	var n int64
	for n < bulkSize && err == nil {
		start := (int(n) + w.offset[s.kind]) % bulkSize
		var k int
		k, err = f.Write(w.base[start : start+bulkRecord])
		n += int64(k)
	}
	tk.end(p)
	p = tk.begin("core.close", true)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	tk.end(p)
	return sideResult{bytes: n, err: err}
}

func (w *bulkWorld) readSide(s side, tk *tracker) sideResult {
	fm := w.fms[s.c]
	p := tk.begin("core.open", true)
	f, err := fm.Open(s.path)
	tk.end(p)
	if err != nil {
		return sideResult{err: err}
	}
	var (
		n   int64
		bad string
	)
	p = tk.begin("core.read", true)
	if s.readSize > 0 {
		buf := make([]byte, s.readSize)
		for {
			k, rerr := f.Read(buf)
			if bad == "" {
				bad = w.check(s.kind, n, buf[:k])
			}
			n += int64(k)
			if rerr != nil {
				if rerr != io.EOF {
					err = rerr
				}
				break
			}
		}
		tk.end(p)
	} else {
		var data []byte
		data, err = io.ReadAll(f)
		tk.end(p)
		n = int64(len(data))
		if err == nil {
			bad = w.check(s.kind, 0, data)
		}
	}
	p = tk.begin("core.close", true)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	tk.end(p)
	if err == nil && bad == "" && n != bulkSize {
		err = fmt.Errorf("%w: %d of %d bytes", errShort, n, bulkSize)
	}
	if err != nil || bad != "" {
		n = 0 // no credit for a failed read
	}
	return sideResult{bytes: n, err: err, bad: bad}
}

// check compares p with the payload of kind at offset pos.
func (w *bulkWorld) check(kind int, pos int64, p []byte) string {
	for len(p) > 0 {
		if pos >= bulkSize {
			return fmt.Sprintf("%d bytes past the end", len(p))
		}
		start := (int(pos) + w.offset[kind]) % bulkSize
		n := min(len(p), bulkSize-start)
		if d := firstDiff(p[:n], w.base[start:start+n]); d != "" {
			return fmt.Sprintf("at offset %d: %s", pos, d)
		}
		p, pos = p[n:], pos+int64(n)
	}
	return ""
}

// verifyRemote compares the file server's copy of the remote write with
// its payload.
func (w *bulkWorld) verifyRemote(path string) string {
	f, err := w.ftpFS.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return err.Error()
	}
	defer f.Close()
	buf := make([]byte, 1<<20)
	var pos int64
	for {
		k, err := f.Read(buf)
		if d := w.check(kindRemote, pos, buf[:k]); d != "" {
			return "stored file " + d
		}
		pos += int64(k)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err.Error()
		}
	}
	if pos != bulkSize {
		return fmt.Sprintf("stored file has %d of %d bytes", pos, bulkSize)
	}
	return ""
}
