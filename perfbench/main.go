// Command perfbench runs one workload of the repository benchmark inside
// this process and prints, as the last line of standard output, one JSON
// object with everything it measured. run.py builds it, starts it in fresh
// processes, compares passes with each other and derives the reported
// metrics; README.md describes the workloads and metrics.
//
// Usage:
//
//	perfbench -workload open-storm|bulk-stream|climate-grid -seed N
//	          [-seconds S] [-dir DIR] [-trace] [-spans FILE]
//	          [-ref BENCH_pr10.json]
//
// Without -trace the program runs exactly as the daemons and workflow
// runner assemble it. With -trace the benchmark wraps the interfaces the
// program already accepts (core.Config.GNS and Dialer, workflow.Runner.GNS,
// each server's net.Listener), records spans in memory and writes them to
// -spans as JSONL when the run ends.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"griddles/internal/core"
	"griddles/internal/gns"
	"griddles/internal/obs"
	"griddles/internal/simclock"
	"griddles/internal/vfs"
)

// result is what one process measured; run.py merges results of several
// processes and derives the reported metrics from them.
type result struct {
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Errors lists the first few op failures, for the report.
	Errors []string `json:"errors"`
	// Mismatches lists every correctness failure: output bytes that differ
	// from the seeded payload, a virtual finish that differs from the
	// reference, a failed phase-sum check.
	Mismatches []string  `json:"mismatches"`
	SetupS     []float64 `json:"setup_s"`
	// WallS is the length of the timed phase.
	WallS  float64 `json:"wall_s"`
	Groups []group `json:"groups"`
	// Checksums name the outputs that verified; a traced pass must match
	// the untraced pass of the same seed exactly.
	Checksums map[string]string  `json:"checksums"`
	Virt      map[string]float64 `json:"virt,omitempty"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Runtime   runtimeStats       `json:"runtime"`
	// Layers holds the per-layer metrics of a traced pass.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// group is a stretch of the timed phase whose rates run.py computes on its
// own before taking the median over groups, so a passing disturbance moves
// one group, not the run: a tenth of open-storm's phase, one bulk-stream
// round, climate-grid's 12-world set.
type group struct {
	WallS float64 `json:"wall_s"`
	// OpUS holds the latency of every op that succeeded.
	OpUS []float64 `json:"op_us"`
	// Bytes counts the verified payload bytes of those ops.
	Bytes int64 `json:"bytes"`
}

// runtimeStats describes the Go runtime over the timed phase.
type runtimeStats struct {
	AllocMB        float64 `json:"alloc_mb"`
	GCCycles       uint32  `json:"gc_cycles"`
	CPUS           float64 `json:"cpu_s"`
	Procs          int     `json:"procs"`
	GoroutinesLeft int     `json:"goroutines_left"`
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	rec     *recorder // nil on an untraced pass
	ref     string    // BENCH_pr10.json, for climate-grid
	dir     string    // working directory the file servers and FMs store into
}

// setupRounds is how many times a process builds its world; it keeps the
// last, and setup_s is the median.
const setupRounds = 9

// buildWorld builds a world setupRounds times, closing each but the last,
// and records each build's time in r.SetupS. It collects garbage before each
// build, outside its time: otherwise whether a collection of the replaced
// world falls inside a build would decide its time.
func buildWorld[W interface{ close() }](r *result, build func(round int) (W, error)) (W, error) {
	var w W
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			w.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if w, err = build(i); err != nil {
			return w, err
		}
		r.SetupS = append(r.SetupS, time.Since(start).Seconds())
	}
	return w, nil
}

// maxErrors bounds how many op errors a result quotes.
const maxErrors = 5

func (r *result) opFailed(err error) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *result) mismatch(format string, args ...any) {
	r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "open-storm, bulk-stream or climate-grid")
	seed := flag.Int64("seed", 1, "seed of payloads and access sequences")
	seconds := flag.Float64("seconds", 10, "length of the timed phase (climate-grid always runs one 12-world set)")
	traced := flag.Bool("trace", false, "wrap the program's interfaces and record spans")
	spans := flag.String("spans", "", "with -trace, write the spans to this file as JSONL")
	ref := flag.String("ref", "BENCH_pr10.json", "bench record holding the climate-grid virtual finishes")
	dir := flag.String("dir", ".", "working directory for the files of the file servers and FMs")
	flag.Parse()

	work, err := os.MkdirTemp(*dir, *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r, err := run(*workload, config{seed: *seed, seconds: *seconds, ref: *ref, dir: work}, *traced, *spans)
	if rerr := os.RemoveAll(work); err == nil {
		err = rerr
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures one workload and completes its result.
func run(workload string, cfg config, traced bool, spans string) (*result, error) {
	if traced {
		cfg.rec = newRecorder()
	}
	before := runtime.NumGoroutine()
	var (
		r   *result
		err error
	)
	switch workload {
	case "open-storm":
		r, err = runOpenStorm(cfg)
	case "bulk-stream":
		r, err = runBulkStream(cfg)
	case "climate-grid":
		r, err = runClimateGrid(cfg)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	r.Workload, r.Traced = workload, traced
	if r.Errors == nil {
		r.Errors = []string{}
	}
	if r.Mismatches == nil {
		r.Mismatches = []string{}
	}
	r.Runtime.GoroutinesLeft = settledGoroutines() - before
	r.PeakRSSMB = peakRSSMB()
	if cfg.rec != nil && spans != "" {
		if err := cfg.rec.writeJSONL(spans); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// meter brackets the timed phase.
type meter struct {
	start time.Time
	mem   runtime.MemStats
	cpu   time.Duration
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.cpu = cpuTime()
	m.start = time.Now()
	return m
}

// stop records the timed phase's wall time and runtime deltas into r.
func (m *meter) stop(r *result) {
	r.WallS = time.Since(m.start).Seconds()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	r.Runtime.AllocMB = float64(end.TotalAlloc-m.mem.TotalAlloc) / 1e6
	r.Runtime.GCCycles = end.NumGC - m.mem.NumGC
	r.Runtime.CPUS = (cpuTime() - m.cpu).Seconds()
	r.Runtime.Procs = runtime.GOMAXPROCS(0)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settledGoroutines counts goroutines once connection handlers of closed
// servers have had a moment to return, so what is left is what leaked.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// fill writes the payload of (seed, stream) into p: a splitmix64 sequence,
// so any byte can be regenerated for comparison.
func fill(p []byte, seed int64, stream uint64) {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ (stream+1)*0xD1B54A32D192ED03
	var word [8]byte
	for i := 0; i < len(p); i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		binary.LittleEndian.PutUint64(word[:], z)
		copy(p[i:], word[:])
	}
}

// tcpDialer is the Dialer the daemons and flowrun use.
type tcpDialer struct{}

func (tcpDialer) Dial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// clientFMs are the FMs of a loopback world, each with the GNS client and
// the tracker (nil when untraced) it was built with.
type clientFMs struct {
	fms      []*core.Multiplexer
	gnsConns []*gns.Client
	trackers []*tracker
}

// add builds an FM the way the daemons' clients are built — TCP dialer, GNS
// client, default core.Config — and on a traced pass wraps its Dialer and
// GNS resolver with a tracker of its own. svc names the service behind each
// server address.
func (c *clientFMs) add(rec *recorder, machine string, fs vfs.FS, gnsAddr string, svc map[string]*svcCounters) (*tracker, error) {
	clock := simclock.Real{}
	var dialer core.Dialer = tcpDialer{}
	tk := newTracker(rec, nil, time.Time{})
	if tk != nil {
		dialer = &tracedDialer{inner: dialer, t: tk, svc: svc}
	}
	gc := gns.NewClient(dialer, gnsAddr, clock)
	var resolver gns.Resolver = gc
	if tk != nil {
		resolver = traceResolver(gc, tk)
	}
	fm, err := core.New(core.Config{Machine: machine, Clock: clock, FS: fs, Dialer: dialer, GNS: resolver})
	if err != nil {
		gc.Close()
		return nil, fmt.Errorf("fm %s: %w", machine, err)
	}
	c.fms = append(c.fms, fm)
	c.gnsConns = append(c.gnsConns, gc)
	c.trackers = append(c.trackers, tk)
	return tk, nil
}

func (c *clientFMs) close() {
	for _, fm := range c.fms {
		fm.Close()
	}
	for _, gc := range c.gnsConns {
		gc.Close()
	}
}

// registries are the FMs' own metric registries.
func (c *clientFMs) registries() []*obs.Registry {
	var regs []*obs.Registry
	for _, fm := range c.fms {
		regs = append(regs, fm.Obs().Registry())
	}
	return regs
}

// loopback runs servers on 127.0.0.1 listeners until close.
type loopback struct {
	listeners []net.Listener
	wg        sync.WaitGroup
}

// start serves on a fresh loopback listener, wrapped for counting when
// counts is non-nil, and returns the address.
func (lb *loopback) start(counts *svcCounters, serve func(net.Listener)) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	lb.listeners = append(lb.listeners, l)
	var served net.Listener = l
	if counts != nil {
		served = &countListener{Listener: l, s: counts}
	}
	lb.wg.Add(1)
	go func() {
		defer lb.wg.Done()
		serve(served)
	}()
	return l.Addr().String(), nil
}

// close stops accepting and waits for every serve loop to return.
func (lb *loopback) close() {
	for _, l := range lb.listeners {
		l.Close()
	}
	lb.wg.Wait()
}

// firstDiff describes where got departs from want, for mismatch reports.
func firstDiff(got, want []byte) string {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("byte %d is %#x, want %#x", i, got[i], want[i])
		}
	}
	if !bytes.Equal(got, want) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	return ""
}
