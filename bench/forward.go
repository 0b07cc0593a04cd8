package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"s3crm"
	"s3crm/internal/diffusion"
	"s3crm/internal/gen"
	"s3crm/internal/gio"
	"s3crm/internal/rng"
)

// forward-solve: the paper's S3CA search on the world-cache engine over an
// Epinions-profile scenario (scale 40: 1,900 users). Each op is a one-shot
// NewCampaign + Solve with IC and 1,000 samples. At scale 40 an op takes
// about 150 ms on a 2-core Xeon VM, so a run's median rests on some 200 ops
// rather than the 50 that scale 20's 600 ms ops allow.
const (
	forwardScale   = 40
	forwardSamples = 1000
	forwardSetups  = 41
)

func forwardSolve(r *run) error {
	gp, err := s3crm.GenerateDataset("Epinions", forwardScale, datasetSeed)
	if err != nil {
		return err
	}
	path := filepath.Join(r.dir, "scenario.json")
	if err := writeScenarioFile(gp, path); err != nil {
		return err
	}
	opts := func(seed uint64) []s3crm.Option {
		return []s3crm.Option{
			s3crm.WithEngine("worldcache"), s3crm.WithModel("ic"),
			s3crm.WithSamples(forwardSamples), s3crm.WithSeed(seed),
		}
	}
	load := func() (*s3crm.Problem, error) { return loadScenarioFile(path) }
	p, err := r.setupSolve(load, opts, forwardSetups)
	if err != nil {
		return err
	}
	var inst *diffusion.Instance
	if r.tr != nil {
		if inst, err = probeInstance(path); err != nil {
			return err
		}
	}
	return r.solveLoop(p, opts, func(st *solveStats, i int, res *s3crm.Result) error {
		if inst == nil || i%2 == 0 {
			return nil
		}
		return st.probe.probe(r, i, inst, res, forwardSamples, opSeed(r.opt.seed, i))
	})
}

// ssr-solve: the reverse-sampling SSR engine on a Watts–Strogatz small world
// (10,000 users, k = 10, β = 0.1, 100k edges) loaded from a plain edge list
// with weighted-cascade probabilities and budget 600. Each op is a one-shot
// NewCampaign + Solve with Workers = nproc, ε = 0.3, default δ and 100
// samples for the final forward measurement.
//
// With ε = 0.3, 35 of 40 probed seeds stopped at 131,072 samples and the rest
// at 65,536, so the median op always lies in the upper mode. An op takes
// about 0.45 s, which gives a run's median some 60 ops; the default ε ran
// every seed to the 2^20-sample cap at 5 s an op, and five ops made a median
// that moved by a quarter between runs.
const (
	ssrNodes   = 10_000
	ssrK       = 10
	ssrBeta    = 0.1
	ssrBudget  = 600
	ssrEpsilon = 0.3
	ssrSamples = 100
	ssrSetups  = 31
)

func ssrSolve(r *run) error {
	path := filepath.Join(r.dir, "graph.txt")
	if err := writeSmallWorld(path, ssrNodes, ssrK, ssrBeta, datasetSeed); err != nil {
		return err
	}
	opts := func(seed uint64) []s3crm.Option {
		return []s3crm.Option{
			s3crm.WithEngine("ssr"), s3crm.WithModel("ic"),
			s3crm.WithSamples(ssrSamples), s3crm.WithSeed(seed),
			s3crm.WithEpsilon(ssrEpsilon), s3crm.WithWorkers(runtime.NumCPU()),
		}
	}
	load := func() (*s3crm.Problem, error) {
		p, _, err := s3crm.LoadGraphProblem(path, s3crm.GraphConfig{Budget: ssrBudget, Seed: datasetSeed})
		return p, err
	}
	p, err := r.setupSolve(load, opts, ssrSetups)
	if err != nil {
		return err
	}
	return r.solveLoop(p, opts, nil)
}

// setupSolve times reps set-ups — load the input file, build the campaign —
// and reports their median as setup_s. It returns the last loaded problem.
func (r *run) setupSolve(load func() (*s3crm.Problem, error), opts func(uint64) []s3crm.Option, reps int) (*s3crm.Problem, error) {
	var setups, loads []float64
	var p *s3crm.Problem
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		root := r.tr.begin("setup", 0, -1-i)
		sp := r.tr.begin("gio.load", root, -1-i)
		var err error
		p, err = load()
		r.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("loading input: %w", err)
		}
		t1 := time.Now()
		sp = r.tr.begin("campaign.new", root, -1-i)
		_, err = p.NewCampaign(opts(opSeed(r.opt.seed, -1-i))...)
		r.tr.end(sp)
		r.tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("set-up campaign: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, ms(t1.Sub(t0)))
	}
	r.endToEnd("setup_s", median(setups), len(setups))
	r.layer("gio.load_ms", median(loads), len(loads))
	return p, nil
}

// minSolveOps is the fewest ops a solve workload's median rests on, should
// a slow machine close the window first.
const minSolveOps = 5

// warmupOps untimed ops run before the window opens, so the first timed op
// does not pay for growing the heap.
const warmupOps = 2

// solveLoop runs warmupOps untimed ops, then one-shot solve ops until the
// window closes and at least minSolveOps have run, checking each result and
// its digest against earlier runs, then reports the metrics. after, when
// set, runs untimed after each timed op.
func (r *run) solveLoop(p *s3crm.Problem, opts func(uint64) []s3crm.Option, after func(*solveStats, int, *s3crm.Result) error) error {
	log, err := r.digestLog()
	if err != nil {
		return err
	}
	for i := 0; i < warmupOps; i++ {
		var discard solveStats
		res, err := r.oneShotSolve(&discard, p, -1-i, opts)
		if err == nil {
			err = checkResult(res, p.Users(), p.Budget())
		}
		if err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
	}
	var st solveStats
	r.openWindow()
	for i := 0; i < minSolveOps || r.timeLeft(); i++ {
		res, err := r.oneShotSolve(&st, p, i, opts)
		if err == nil {
			err = checkResult(res, p.Users(), p.Budget())
		}
		if err == nil {
			err = log.note(i, digest(res))
		}
		if err == nil && after != nil {
			err = after(&st, i, res)
		}
		r.op(err)
		if err != nil && res == nil {
			break // a failing solve would fail the same way again
		}
	}
	if err := log.save(); err != nil {
		return err
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return err
	}
	r.endToEnd("peak_rss_mib", rss, 1)
	st.report(r)
	return nil
}

// writeSmallWorld writes a Watts–Strogatz small world as a plain SNAP edge
// list with no probability column.
func writeSmallWorld(path string, n, k int, beta float64, seed uint64) error {
	g, err := gen.WattsStrogatz(n, k, beta, rng.New(seed))
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gio.WriteEdgeListPlain(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
