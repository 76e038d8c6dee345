package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"griddles/internal/climate"
	"griddles/internal/experiments"
	"griddles/internal/gridbuffer"
	"griddles/internal/gridftp"
	"griddles/internal/objstore"
	"griddles/internal/obs"
	"griddles/internal/simclock"
	"griddles/internal/soap"
	"griddles/internal/testbed"
	"griddles/internal/vfs"
	"griddles/internal/workflow"
)

// climate-grid: the Table 5 climate DAG (C-CAM -> cc2lam -> DARLAM) for all
// six pairings under both couplings, each in a fresh simulated world under
// the virtual clock, at the 1/4 scale of bench_test.go's benchClimate. One
// process runs one set of 12 worlds: the worlds leak goroutines and memory,
// so sets must not pile up in one process. The worlds run in Table 5 order
// whatever the seed: the inputs are the paper's, and the order decides how
// much leaked heap each world's garbage collections walk (a shuffled order
// moved the set's GC cycles between 389 and 913), which would mix the seed
// into the wall times.

// climateParams is bench_test.go's benchClimate: the Table 3-5 workload at
// 1/4 scale.
func climateParams() climate.Params {
	p := climate.DefaultParams()
	p.Steps /= 4
	p.Work.CCAM /= 4
	p.Work.CC2LAM /= 4
	p.Work.DARLAM /= 4
	p.ReRead = 4
	return p
}

// climateCase is one world: a pairing under one coupling. Its key matches
// the BenchmarkTable5Distributed metric "virt-s/<key>".
type climateCase struct {
	pair     experiments.Pairing
	coupling workflow.Coupling
	key      string
}

func climateCases() []climateCase {
	var cs []climateCase
	for _, p := range experiments.Table5Pairings {
		base := p.Src + "-" + p.Dst
		cs = append(cs,
			climateCase{p, workflow.CouplingSequential, base + "-files"},
			climateCase{p, workflow.CouplingBuffers, base + "-buffers"})
	}
	return cs
}

// loadReference reads the BenchmarkTable5Distributed virtual finishes.
func loadReference(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec struct {
		Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	t5 := rec.Benchmarks["BenchmarkTable5Distributed"]
	ref := map[string]float64{}
	for _, c := range climateCases() {
		v, ok := t5["virt-s/"+c.key]
		if !ok {
			return nil, fmt.Errorf("%s: no virt-s/%s", path, c.key)
		}
		ref[c.key] = v
	}
	return ref, nil
}

// printed formats v the way `go test -bench` prints a custom metric, which
// is the precision the bench record keeps.
func printed(v float64) string {
	switch a := math.Abs(v); {
	case a == 0 || a >= 999.95:
		return fmt.Sprintf("%.0f", v)
	case a >= 99.995:
		return fmt.Sprintf("%.1f", v)
	case a >= 9.9995:
		return fmt.Sprintf("%.2f", v)
	case a >= 0.99995:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func runClimateGrid(cfg config) (*result, error) {
	ref, err := loadReference(cfg.ref)
	if err != nil {
		return nil, err
	}
	r := &result{Virt: map[string]float64{}, Checksums: map[string]string{}, Groups: make([]group, 1)}
	g := &r.Groups[0]
	cases := climateCases()
	params := climateParams()

	var envs []*experiments.Env
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		envs = make([]*experiments.Env, len(cases))
		for j := range envs {
			envs[j] = experiments.NewEnv()
			envs[j].Runner.CacheFiles = climate.CacheFiles()
		}
		r.SetupS = append(r.SetupS, time.Since(start).Seconds())
	}

	var (
		regs   []*obs.Registry
		means  = map[string]float64{} // per-world sums, averaged below
		polls  int64
		output string
	)
	m := startMeter()
	for i, c := range cases {
		env := envs[i]
		spec := climate.WorkflowSpec(params, climate.Split(c.pair.Src, c.pair.Dst))
		r.Attempted++
		t0 := time.Now()
		var rep *workflow.Report
		if cfg.rec == nil {
			rep, err = env.Run(spec, c.coupling, nil)
		} else {
			rep, err = runTracedWorld(env, spec, c.coupling, cfg.rec, c.key)
			if err == nil {
				regs = append(regs, env.Runner.Obs.Registry())
				n, ok := workflowLayers(env.Runner.Obs, rep, means)
				if !ok {
					r.mismatch("climate-grid %s: a wf.stage event is missing", c.key)
				}
				polls += n
			}
		}
		lat := time.Since(t0)
		if err != nil {
			r.opFailed(fmt.Errorf("%s: %w", c.key, err))
			continue
		}
		da, _ := rep.Timing("darlam")
		finish := da.Finish.Seconds()
		r.Virt[c.key] = finish
		if got, want := printed(finish), printed(ref[c.key]); got != want {
			r.mismatch("climate-grid %s: DARLAM finishes at %s virtual s, %s says %s", c.key, got, cfg.ref, want)
		}
		out, err := vfs.ReadFile(env.Grid.Machine(c.pair.Dst).RawFS(), climate.FileDarlamOut)
		if err != nil {
			r.mismatch("climate-grid %s: %v", c.key, err)
			continue
		}
		// The coupling and the machines change when DARLAM finishes, never
		// what it computes.
		if output == "" {
			output = string(out)
		} else if d := firstDiff(out, []byte(output)); d != "" {
			r.mismatch("climate-grid %s: %s differs from the other worlds: %s", c.key, climate.FileDarlamOut, d)
		}
		sum := sha256.Sum256(out)
		r.Checksums[c.key] = hex.EncodeToString(sum[:])
		g.OpUS = append(g.OpUS, float64(lat)/1e3)
		g.Bytes += int64(len(out))
	}
	m.stop(r)
	g.WallS = r.WallS

	for _, c := range climateCases() {
		kind := "virt_makespan_buffers_s"
		if c.coupling == workflow.CouplingSequential {
			kind = "virt_makespan_files_s"
		}
		r.Virt[kind] += r.Virt[c.key]
	}
	if cfg.rec != nil {
		a := cfg.rec.analyze("", r.Attempted)
		r.Layers = a.layers
		for k, v := range registryLayers(regs) {
			r.Layers[k] = v
		}
		for k, v := range means {
			r.Layers[k] = v / float64(len(regs))
		}
		r.Layers["workflow.polls"] = float64(polls)
	}
	return r, nil
}

// runTracedWorld is experiments.Env.Run with the layers wrapped: the
// Runner's GNS directory, an observer shared by its FMs, and the listener
// of every service of every machine.
func runTracedWorld(env *experiments.Env, spec *workflow.Spec, coupling workflow.Coupling, rec *recorder, key string) (rep *workflow.Report, err error) {
	tk := newTracker(rec, env.Clock, env.Clock.Now())
	env.Runner.GNS = traceDirectory(env.Runner.GNS, tk)
	env.Runner.Obs = obs.New(env.Clock)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("simulation aborted: %v", p)
		}
	}()
	op := tk.startOp("climate.world")
	env.Clock.Run(func() {
		if err = startServices(env.Clock, env.Grid, rec, env.Runner.Obs); err != nil {
			return
		}
		rep, err = env.Runner.Run(spec, coupling)
	})
	op.s.Mode = key
	tk.end(op)
	return rep, err
}

// startServices is workflow.StartServices with every listener wrapped for
// counting and the Grid Buffer registries reporting to o.
func startServices(clock simclock.Clock, grid *testbed.Grid, rec *recorder, o *obs.Observer) error {
	for name, m := range grid.Machines() {
		m := m
		lf, err := m.Listen(workflow.FileServicePort)
		if err != nil {
			return fmt.Errorf("%s file service: %w", name, err)
		}
		lf = &countListener{Listener: lf, s: rec.wire["gridftp"]}
		clock.Go(name+"-gridftp", func() { gridftp.NewServer(m.FS(), clock).Serve(lf) })
		lb, err := m.Listen(workflow.BufferServicePort)
		if err != nil {
			return fmt.Errorf("%s buffer service: %w", name, err)
		}
		lb = &countListener{Listener: lb, s: rec.wire["gridbuffer"]}
		reg := gridbuffer.NewRegistry(clock, m.FS())
		reg.SetObserver(o)
		clock.Go(name+"-gridbuffer", func() { gridbuffer.NewServer(reg, clock).Serve(lb) })
		ls, err := m.Listen(workflow.SOAPBufferServicePort)
		if err != nil {
			return fmt.Errorf("%s soap buffer service: %w", name, err)
		}
		clock.Go(name+"-soapbuffer", func() { soap.ServeBuffer(clock, reg).Serve(ls) })
		lo, err := m.Listen(workflow.ObjectStoreServicePort)
		if err != nil {
			return fmt.Errorf("%s object store service: %w", name, err)
		}
		clock.Go(name+"-objstore", func() { objstore.NewServer(objstore.NewStore(), clock).Serve(lo) })
	}
	return nil
}

// workflowLayers adds one world's stage times and copy wait to acc and
// returns its WaitClose polls, summed over the wf.stage events; ok is false
// when a stage has no event.
func workflowLayers(o *obs.Observer, rep *workflow.Report, acc map[string]float64) (polls int64, ok bool) {
	for _, t := range rep.Timings {
		acc["workflow.stage_virt_s."+t.Name] += (t.Finish - t.Start).Seconds()
	}
	if da, ok := rep.Timing("darlam"); ok {
		if mark, ok := rep.Mark("darlam/input-open"); ok {
			acc["workflow.copy_wait_virt_s"] += (mark - da.Start).Seconds()
		}
	}
	stages := 0
	for _, e := range o.Events() {
		if n, isInt := e.Attr("polls").(int64); e.Type == "wf.stage" && isInt {
			polls += n
			stages++
		}
	}
	return polls, stages == len(rep.Timings)
}
