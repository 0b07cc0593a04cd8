package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"s3crm"
	"s3crm/internal/diffusion"
	"s3crm/internal/gio"
	"s3crm/internal/rng"
)

// corePhases are the S3CA phases the progress events name, in order; the
// SSR engine's "sketch" phase is reported under the sketch layer.
var corePhases = []string{"pivot", "id", "gpi", "scm", "select", finalPhase}

// solveStats gathers one solve workload's per-op findings.
type solveStats struct {
	opMs       []float64 // every op's wall time
	tracedMs   []float64 // traced ops only
	untracedMs []float64 // untraced ops only
	rates      []float64
	newMs      []float64
	phases     map[string][]float64
	candEvals  []float64
	evals      []float64
	sketch     sketchStats
	proc       procDeltas
	probe      probeStats
}

type sketchStats struct {
	buildMs, selectMs, samples, rounds, gap, perS []float64
}

// oneShotSolve is one forward-solve or ssr-solve op: a fresh campaign over p
// with the pinned seed, then one S3CA solve. In a traced run odd ops are
// traced, so the run also measures what tracing costs.
func (r *run) oneShotSolve(st *solveStats, p *s3crm.Problem, i int, opts func(seed uint64) []s3crm.Option) (*s3crm.Result, error) {
	seed := opSeed(r.opt.seed, i)
	traced := r.tr != nil && i%2 == 1
	var ev stamps
	callOpts := []s3crm.Option{s3crm.WithSeed(seed)}
	if traced {
		callOpts = append(callOpts, s3crm.WithProgress(ev.sink))
	}
	runtime.GC()
	var before procSample
	if r.tr != nil {
		before = readProc()
	}

	t0 := time.Now()
	root := r.beginIf(traced, "op", 0, i)
	sp := r.beginIf(traced, "campaign.new", root, i)
	c, err := p.NewCampaign(opts(seed)...)
	r.endIf(traced, sp)
	if err != nil {
		return nil, fmt.Errorf("new campaign: %w", err)
	}
	sp = r.beginIf(traced, "campaign.solve", root, i)
	tSolve := time.Now()
	res, err := c.Solve(context.Background(), callOpts...)
	tEnd := time.Now()
	r.endIf(traced, sp)
	r.endIf(traced, root)
	wall := ms(tEnd.Sub(t0))
	if err != nil {
		return nil, fmt.Errorf("solve: %w", err)
	}

	if r.tr != nil {
		st.proc = append(st.proc, before.to(readProc()))
	}
	st.opMs = append(st.opMs, wall)
	st.rates = append(st.rates, res.RedemptionRate)
	if !traced {
		st.untracedMs = append(st.untracedMs, wall)
		return res, nil
	}
	st.tracedMs = append(st.tracedMs, wall)
	st.newMs = append(st.newMs, ms(tSolve.Sub(t0)))
	evs := ev.all()
	cuts := phaseCuts(tSolve, tEnd, evs)
	for _, cut := range cuts {
		r.tr.add("phase."+cut.name, sp, i, cut.from, cut.to)
	}
	tot := phaseTotals(cuts)
	if st.phases == nil {
		st.phases = map[string][]float64{}
	}
	for _, ph := range corePhases {
		st.phases[ph] = append(st.phases[ph], tot[ph])
	}
	if n := len(evs); n > 0 {
		st.candEvals = append(st.candEvals, float64(evs[n-1].ev.CandidateEvals))
		st.evals = append(st.evals, float64(evs[n-1].ev.Evaluations))
	}
	if e, ok := ev.last("sketch"); ok {
		build := float64(res.SketchBuildNs) / 1e6
		k := &st.sketch
		k.buildMs = append(k.buildMs, build)
		k.selectMs = append(k.selectMs, tot["sketch"]-build)
		k.samples = append(k.samples, float64(e.Samples))
		k.rounds = append(k.rounds, float64(e.Iteration))
		k.gap = append(k.gap, e.BoundGap)
		if build > 0 {
			k.perS = append(k.perS, float64(e.Samples)/(build/1e3))
		}
	}
	return res, nil
}

func (r *run) beginIf(on bool, name string, parent, op int) int {
	if !on {
		return 0
	}
	return r.tr.begin(name, parent, op)
}

func (r *run) endIf(on bool, id int) {
	if on {
		r.tr.end(id)
	}
}

// report turns a solve workload's findings into metrics: the end-to-end op
// median and redemption, and in traced runs the per-layer medians.
func (st *solveStats) report(r *run) {
	r.endToEnd("op_p50_ms", median(st.opMs), len(st.opMs))
	r.lines = append(r.lines, "# op_p50_ms is solve_p50_ms here")
	r.endToEnd("redemption", mean(st.rates), len(st.rates))
	if r.tr == nil {
		return
	}
	n := len(st.tracedMs)
	r.layer("campaign.new_ms", median(st.newMs), n)
	for _, ph := range corePhases {
		r.layer("core."+ph+"_ms", median(st.phases[ph]), n)
	}
	r.layer("core.candidate_evals", median(st.candEvals), len(st.candEvals))
	r.layer("core.evaluations", median(st.evals), len(st.evals))
	k := st.sketch
	if len(k.buildMs) > 0 {
		r.layer("sketch.build_ms", median(k.buildMs), len(k.buildMs))
		r.layer("sketch.select_ms", median(k.selectMs), len(k.selectMs))
		r.layer("sketch.samples", median(k.samples), len(k.samples))
		r.layer("sketch.rounds", median(k.rounds), len(k.rounds))
		r.layer("sketch.bound_gap", median(k.gap), len(k.gap))
		r.layer("sketch.samples_per_s", median(k.perS), len(k.perS))
	}
	st.proc.report(r)
	st.probe.report(r)
	r.overhead(st.tracedMs, st.untracedMs)
}

// overhead reports how much slower traced ops ran than untraced ones, as a
// share of the untraced median.
func (r *run) overhead(traced, untraced []float64) {
	if len(traced) == 0 || len(untraced) == 0 {
		return
	}
	u := median(untraced)
	r.layer("trace.overhead_pct", 100*(median(traced)-u)/u, len(traced)+len(untraced))
}

// loadScenarioFile reads a saved scenario through the public API.
func loadScenarioFile(path string) (*s3crm.Problem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return s3crm.LoadScenario(f)
}

// writeScenarioFile saves p where the workload's setup will read it.
func writeScenarioFile(p *s3crm.Problem, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.SaveScenario(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeStats gathers the direct diffusion-layer calls of a traced run.
type probeStats struct {
	evalMs, fillMs, blocks, rebaseMs, deltaMs []float64
}

// probeInstance reads a scenario file into the diffusion layer's instance
// type, for calls below the public API.
func probeInstance(path string) (*diffusion.Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := gio.ReadScenario(f)
	if err != nil {
		return nil, err
	}
	g, err := s.Graph()
	if err != nil {
		return nil, err
	}
	return &diffusion.Instance{G: g, Benefit: s.Benefit, SeedCost: s.SeedCost, SCCost: s.SCCost, Budget: s.Budget}, nil
}

// probe times the diffusion layer on one deployment, outside any op: an
// Estimator.Evaluate on a fresh estimator (which fills live-edge rows) and
// again warm, a full WorldCache.Rebase, and DeltaBenefits over 64
// candidates drawn from seed.
func (ps *probeStats) probe(r *run, op int, inst *diffusion.Instance, res *s3crm.Result, samples int, seed uint64) error {
	n := inst.G.NumNodes()
	d := diffusion.NewDeployment(n)
	for _, s := range res.Seeds {
		d.AddSeed(int32(s))
	}
	for u, k := range res.Coupons {
		d.SetK(int32(u), k)
	}
	ev, err := diffusion.NewEngineOpts(inst, diffusion.EngineOptions{Samples: samples, Seed: seed})
	if err != nil {
		return fmt.Errorf("probe engine: %w", err)
	}
	est := ev.(*diffusion.Estimator)
	timed := func(name string, f func()) float64 {
		sp := r.tr.begin(name, 0, op)
		t := time.Now()
		f()
		el := ms(time.Since(t))
		r.tr.end(sp)
		return el
	}
	fresh := timed("diffusion.evaluate.fresh", func() { est.Evaluate(d) })
	b0 := est.BlockEvals()
	warm := timed("diffusion.evaluate", func() { est.Evaluate(d) })
	ps.blocks = append(ps.blocks, float64(est.BlockEvals()-b0))
	ps.evalMs = append(ps.evalMs, warm)
	ps.fillMs = append(ps.fillMs, max(fresh-warm, 0))

	wc := &diffusion.WorldCache{Est: est}
	ps.rebaseMs = append(ps.rebaseMs, timed("diffusion.rebase", func() { wc.Rebase(d) }))
	src := rng.New(seed)
	cands := make([]int32, 0, 64)
	for tries := 0; len(cands) < 64 && tries < 64*n; tries++ {
		v := int32(src.Intn(n))
		if d.K(v) < inst.G.OutDegree(v) {
			cands = append(cands, v)
		}
	}
	ps.deltaMs = append(ps.deltaMs, timed("diffusion.delta", func() { wc.DeltaBenefits(cands) }))
	return nil
}

func (ps *probeStats) report(r *run) {
	if len(ps.evalMs) == 0 {
		return
	}
	n := len(ps.evalMs)
	r.layer("diffusion.evaluate_ms", median(ps.evalMs), n)
	r.layer("diffusion.fill_ms", median(ps.fillMs), n)
	r.layer("diffusion.world_blocks", median(ps.blocks), n)
	r.layer("diffusion.rebase_ms", median(ps.rebaseMs), n)
	r.layer("diffusion.delta_ms", median(ps.deltaMs), n)
}
