package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"griddles/internal/core"
	"griddles/internal/gns"
	"griddles/internal/obs"
	"griddles/internal/simclock"
)

// span is one timed call at a layer boundary. Start and End are wall
// nanoseconds since the recorder's origin. Spans of a simulated world also
// carry the world's virtual nanoseconds since its epoch.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	VStart *int64 `json:"vstart_ns,omitempty"`
	VEnd   *int64 `json:"vend_ns,omitempty"`
	// A transfer side (an open-storm op, a bulk-stream reader or writer)
	// records what it moved.
	Mode   string `json:"mode,omitempty"`
	Dir    string `json:"dir,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Failed bool   `json:"failed,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps every span of a traced pass in memory, plus byte counts
// of the loopback connections per service.
type recorder struct {
	origin time.Time
	ids    atomic.Int64

	mu       sync.Mutex
	trackers []*tracker

	wire map[string]*svcCounters // by service name; fixed before clients start
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), wire: map[string]*svcCounters{
		"gns": {}, "gridftp": {}, "gridbuffer": {},
	}}
}

// spans gathers the spans of every tracker; call it once clients stopped.
func (r *recorder) spans() []span {
	var all []span
	for _, t := range r.trackers {
		for _, c := range t.chunks {
			all = append(all, c...)
		}
	}
	return all
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for _, t := range r.trackers {
		for _, c := range t.chunks {
			for i := range c {
				if err := enc.Encode(&c[i]); err != nil {
					f.Close()
					return err
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanChunk is how many spans a tracker stores per allocation; chunks are
// never copied, so recording stays cheap however long the run.
const spanChunk = 4096

// tracker attributes spans to the op one client goroutine is running. The
// wrappers an FM calls into share that client's tracker, so a resolve or a
// dial lands under the phase that caused it. A nil tracker records nothing.
type tracker struct {
	rec   *recorder
	clock simclock.Clock // a simulated world's virtual clock, else nil
	epoch time.Time

	// every > 1 records only every every-th op's spans, for workloads
	// whose op rate would otherwise keep millions of spans in memory.
	every int

	mu      sync.Mutex
	n       int  // ops started
	on      bool // the current op is recorded
	op, cur int64
	chunks  [][]span
}

// pend is a span that has started; end records it. The zero pend belongs
// to an op that is not recorded.
type pend struct {
	s    span
	push bool
}

// newTracker registers a tracker with rec; clock and epoch give spans the
// virtual time of a simulated world. It returns nil when rec is nil.
func newTracker(rec *recorder, clock simclock.Clock, epoch time.Time) *tracker {
	if rec == nil {
		return nil
	}
	t := &tracker{rec: rec, clock: clock, epoch: epoch}
	rec.mu.Lock()
	rec.trackers = append(rec.trackers, t)
	rec.mu.Unlock()
	return t
}

// startOp opens the root span of a new op.
func (t *tracker) startOp(name string) pend {
	if t == nil {
		return pend{}
	}
	t.mu.Lock()
	t.n++
	t.on = t.every <= 1 || t.n%t.every == 1
	if !t.on {
		t.mu.Unlock()
		return pend{}
	}
	id := t.rec.ids.Add(1)
	t.op, t.cur = id, id
	t.mu.Unlock()
	return t.stamp(span{Name: name, ID: id, Op: id}, true)
}

// join puts later spans of t under the open span p of another tracker: the
// second side of a transfer.
func (t *tracker) join(p pend) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = p.s.ID != 0
	t.op, t.cur = p.s.Op, p.s.ID
	t.mu.Unlock()
}

// begin opens a span under the innermost open span. With push, later spans
// nest under it until it ends; wrappers, which other goroutines may call
// concurrently, record leaves.
func (t *tracker) begin(name string, push bool) pend {
	if t == nil {
		return pend{}
	}
	t.mu.Lock()
	if !t.on {
		t.mu.Unlock()
		return pend{}
	}
	id := t.rec.ids.Add(1)
	s := span{Name: name, ID: id, Parent: t.cur, Op: t.op}
	if push {
		t.cur = id
	}
	t.mu.Unlock()
	return t.stamp(s, push)
}

func (t *tracker) stamp(s span, push bool) pend {
	if t.clock != nil {
		v := int64(t.clock.Now().Sub(t.epoch))
		s.VStart = &v
	}
	s.Start = int64(time.Since(t.rec.origin))
	return pend{s: s, push: push}
}

func (t *tracker) end(p pend) {
	if t == nil || p.s.ID == 0 {
		return
	}
	s := p.s
	s.End = int64(time.Since(t.rec.origin))
	if t.clock != nil {
		v := int64(t.clock.Now().Sub(t.epoch))
		s.VEnd = &v
	}
	t.mu.Lock()
	if p.push {
		t.cur = s.Parent
	}
	if n := len(t.chunks); n == 0 || len(t.chunks[n-1]) == spanChunk {
		t.chunks = append(t.chunks, make([]span, 0, spanChunk))
	}
	last := &t.chunks[len(t.chunks)-1]
	*last = append(*last, s)
	t.mu.Unlock()
}

// tracedResolver times the resolves an FM makes through core.Config.GNS.
type tracedResolver struct {
	inner gns.Resolver
	t     *tracker
}

func (r *tracedResolver) Resolve(machine, path string) (gns.Mapping, error) {
	p := r.t.begin("gns.resolve", false)
	defer r.t.end(p)
	return r.inner.Resolve(machine, path)
}

func (r *tracedResolver) Watch(machine, path string, since uint64, timeoutMS int64) (gns.Mapping, bool, error) {
	p := r.t.begin("gns.watch", false)
	defer r.t.end(p)
	return r.inner.Watch(machine, path, since, timeoutMS)
}

// tracedFreshResolver adds gns.FreshResolver, which the FM probes for
// (core/multiplexer.go), exactly when the wrapped resolver has it.
type tracedFreshResolver struct{ *tracedResolver }

func (r tracedFreshResolver) ResolveFresh(machine, path string) (gns.Mapping, error) {
	p := r.t.begin("gns.resolve", false)
	defer r.t.end(p)
	return r.inner.(gns.FreshResolver).ResolveFresh(machine, path)
}

func traceResolver(inner gns.Resolver, t *tracker) gns.Resolver {
	r := &tracedResolver{inner: inner, t: t}
	if _, ok := inner.(gns.FreshResolver); ok {
		return tracedFreshResolver{r}
	}
	return r
}

// tracedDirectory times the resolves of every FM a workflow.Runner starts,
// through Runner.GNS; the coordinator's writes pass through untouched.
type tracedDirectory struct {
	gns.Directory
	t *tracker
}

func (d *tracedDirectory) Resolve(machine, path string) (gns.Mapping, error) {
	p := d.t.begin("gns.resolve", false)
	defer d.t.end(p)
	return d.Directory.Resolve(machine, path)
}

func (d *tracedDirectory) Watch(machine, path string, since uint64, timeoutMS int64) (gns.Mapping, bool, error) {
	p := d.t.begin("gns.watch", false)
	defer d.t.end(p)
	return d.Directory.Watch(machine, path, since, timeoutMS)
}

type tracedFreshDirectory struct{ *tracedDirectory }

func (d tracedFreshDirectory) ResolveFresh(machine, path string) (gns.Mapping, error) {
	p := d.t.begin("gns.resolve", false)
	defer d.t.end(p)
	return d.Directory.(gns.FreshResolver).ResolveFresh(machine, path)
}

func traceDirectory(inner gns.Directory, t *tracker) gns.Directory {
	d := &tracedDirectory{Directory: inner, t: t}
	if _, ok := inner.(gns.FreshResolver); ok {
		return tracedFreshDirectory{d}
	}
	return d
}

// connCounts counts Write calls and bytes on one side of a service's
// connections. A client's writes stand in for request frames.
type connCounts struct{ writes, bytes atomic.Int64 }

type svcCounters struct{ client, server connCounts }

type countConn struct {
	net.Conn
	c *connCounts
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

// countListener wraps the listener handed to a server.
type countListener struct {
	net.Listener
	s *svcCounters
}

func (l *countListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: conn, c: &l.s.server}, nil
}

// tracedDialer times dials and counts client writes per service; services
// are told apart by address.
type tracedDialer struct {
	inner core.Dialer
	t     *tracker
	svc   map[string]*svcCounters // by address; fixed before clients start
}

func (d *tracedDialer) Dial(addr string) (net.Conn, error) {
	p := d.t.begin("net.dial", false)
	conn, err := d.inner.Dial(addr)
	d.t.end(p)
	if err != nil {
		return nil, err
	}
	if s := d.svc[addr]; s != nil {
		return &countConn{Conn: conn, c: &s.client}, nil
	}
	return conn, nil
}

// Tolerances of the phase-sum check on open-storm. The gaps between an
// op's phases are the benchmark's own clock reads, a few hundred ns; a
// thread the OS or the garbage collector stops inside a gap widens one now
// and then. A phase the spans miss would widen every op.
const (
	// An op's phases (open, read or write, close) must cover all of the op
	// span but phaseSlackFrac of it plus phaseSlackNS, and within an open
	// resolve + dial + self time must add up to the open as closely.
	phaseSlackFrac = 0.02
	phaseSlackNS   = 10000
	// The check fails when more than phaseMaxBadFrac of ops miss that.
	phaseMaxBadFrac = 0.01
)

// analysis is what the span tree yields.
type analysis struct {
	layers     map[string]float64
	mismatches []string
}

// analyze derives the span-based per-layer metrics. phaseOp names the root
// spans the phase-sum check applies to ("" for none); attempted counts every
// op of the pass, recorded or not, for the wire counters, which see them
// all.
func (r *recorder) analyze(phaseOp string, attempted int) analysis {
	spans := r.spans()
	children := make(map[int64][]int, len(spans))
	for i := range spans {
		if spans[i].Parent != 0 {
			children[spans[i].Parent] = append(children[spans[i].Parent], i)
		}
	}
	// covered is the part of s that spans named by keep, among its
	// children, cover.
	covered := func(s *span, keep func(string) bool) int64 {
		var iv [][2]int64
		for _, ci := range children[s.ID] {
			c := &spans[ci]
			if keep(c.Name) {
				iv = append(iv, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
			}
		}
		return unionLen(iv)
	}
	all := func(string) bool { return true }

	durs := map[string][]float64{}
	var (
		openSelf                        []float64
		ops, dials                      int
		opNS, resolveNS, dialNS         int64
		phaseChecked, phaseBad, openBad int
		xferBytes, xferNS               = map[string]int64{}, map[string]int64{}
	)
	isPhase := func(name string) bool { return strings.HasPrefix(name, "core.") }
	for i := range spans {
		s := &spans[i]
		d := s.dur()
		durs[s.Name] = append(durs[s.Name], float64(d)/1e3)
		switch {
		case s.Parent == 0:
			ops++
			opNS += d
			if s.Name == phaseOp {
				phaseChecked++
				if gap := d - covered(s, isPhase); float64(gap) > phaseSlackFrac*float64(d)+phaseSlackNS {
					phaseBad++
				}
			}
		case s.Name == "gns.resolve":
			resolveNS += d
		case s.Name == "net.dial":
			dials++
			dialNS += d
		case s.Name == "core.open":
			self := d - covered(s, all)
			openSelf = append(openSelf, float64(self)/1e3)
			var sum int64
			for _, ci := range children[s.ID] {
				sum += spans[ci].dur()
			}
			// Resolve, dial and self time add up to the open unless
			// child spans overlap or leave their parent.
			if math.Abs(float64(sum+self-d)) > phaseSlackFrac*float64(d)+phaseSlackNS {
				openBad++
			}
		}
		if s.Dir != "" && !s.Failed {
			key := s.Dir + "." + s.Mode
			xferBytes[key] += s.Bytes
			xferNS[key] += d
		}
	}

	l := map[string]float64{
		"core.open_us":       median(durs["core.open"]),
		"core.open_self_us":  median(openSelf),
		"core.read_us":       median(durs["core.read"]),
		"core.close_us":      median(durs["core.close"]),
		"gns.resolve_us":     median(durs["gns.resolve"]),
		"gns.resolve_total":  ratio(float64(len(durs["gns.resolve"])), float64(ops)) * float64(attempted),
		"gns.resolve_per_op": ratio(float64(len(durs["gns.resolve"])), float64(ops)),
		"gns.resolve_share":  ratio(float64(resolveNS), float64(opNS)),
		"net.dials":          float64(dials),
		"net.dial_us":        ratio(float64(dialNS)/1e3, float64(dials)),
	}
	for _, m := range []string{"buffer", "remote", "copy"} {
		l["core.read_mb_per_s."+m] = ratio(float64(xferBytes["read."+m])/1e6, float64(xferNS["read."+m])/1e9)
	}
	for _, m := range []string{"buffer", "remote"} {
		l["core.write_mb_per_s."+m] = ratio(float64(xferBytes["write."+m])/1e6, float64(xferNS["write."+m])/1e9)
	}
	for _, svc := range []string{"gns", "gridftp", "gridbuffer"} {
		w := r.wire[svc]
		writes := w.client.writes.Load() + w.server.writes.Load()
		b := w.client.bytes.Load() + w.server.bytes.Load()
		l["net.writes_per_op."+svc] = ratio(float64(w.client.writes.Load()), float64(attempted))
		l["net.bytes_per_op."+svc] = ratio(float64(b), float64(attempted))
		l["net.bytes_per_write."+svc] = ratio(float64(b), float64(writes))
	}
	var a analysis
	a.layers = l
	if phaseOp != "" {
		allowed := int(phaseMaxBadFrac * float64(phaseChecked))
		if phaseBad > allowed {
			a.mismatches = append(a.mismatches, fmt.Sprintf(
				"phase-sum check: %d of %d ops have open+read/write+close cover less than the op span minus %.0f%% and %dns (at most %d allowed)",
				phaseBad, phaseChecked, phaseSlackFrac*100, phaseSlackNS, allowed))
		}
		if openBad > allowed {
			a.mismatches = append(a.mismatches, fmt.Sprintf(
				"phase-sum check: %d of %d opens are not resolve+dial+self within %.0f%% and %dns (at most %d allowed)",
				openBad, len(durs["core.open"]), phaseSlackFrac*100, phaseSlackNS, allowed))
		}
	}
	return a
}

// registryLayers sums the program's own metrics across the registries of
// every FM and server of a pass.
func registryLayers(regs []*obs.Registry) map[string]float64 {
	var blocks, contended, hit, miss, copyin, stallMS, waitMS int64
	for _, reg := range regs {
		blocks += reg.SumPrefix("gb.put.total")
		contended += reg.SumPrefix("buf.shard.contended.total")
		hit += reg.SumPrefix("ftp.readahead.hit.total")
		miss += reg.SumPrefix("ftp.readahead.miss.total")
		copyin += reg.SumPrefix("ftp.copyin.bytes")
		for name, h := range reg.Snapshot().Histograms {
			switch {
			case strings.HasPrefix(name, "gb.put.stall_ms"):
				stallMS += h.Sum
			case strings.HasPrefix(name, "gb.read.wait_ms"):
				waitMS += h.Sum
			}
		}
	}
	return map[string]float64{
		"gridbuffer.blocks":           float64(blocks),
		"gridbuffer.put_stall_ms":     float64(stallMS),
		"gridbuffer.read_wait_ms":     float64(waitMS),
		"gridbuffer.shard_contended":  float64(contended),
		"gridftp.readahead_hit_ratio": ratio(float64(hit), float64(hit+miss)),
		"gridftp.copyin_mb":           float64(copyin) / 1e6,
	}
}

// unionLen is the total length covered by the intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	started := false
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		switch {
		case !started || v[0] >= end:
			total += v[1] - v[0]
			end = v[1]
			started = true
		case v[1] > end:
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
