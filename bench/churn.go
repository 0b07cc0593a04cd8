package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"s3crm"
	"s3crm/internal/gio"
	"s3crm/internal/graph"
	"s3crm/internal/rng"
)

// churn-refresh: writes beside reads. A 200,000-user small world (2M edges)
// is loaded from file, 15% of its edges are held out, and a world-cache
// campaign (100 samples, GPI limit 2,000, Workers = nproc) solves the reduced
// graph; that is the set-up. The held-out edges then stream back, in an
// order drawn from the workload seed, in batches of 2,000: each op is one
// ApplyEdges + Resolve(prev). The cycle of set-up and stream repeats while
// the window is open; every cycle must produce the same deployments.
//
// The held-out set and the campaign seed are fixed with the network, so the
// set-up does the same work on every seed. Drawn from the workload seed,
// they made the pre-churn solve take anywhere from 1.6 to 6.5 s on a 2-core
// Xeon VM.
const (
	churnNodes    = 200_000
	churnK        = 10
	churnBeta     = 0.1
	churnBudget   = 3000
	churnHoldOut  = 0.15
	churnBatch    = 2000
	churnSamples  = 100
	churnGPILimit = 2000
)

type churnStats struct {
	setupS, loadMs                      []float64
	refreshMs, tracedMs, untracedMs     []float64
	applyMs, resolveMs, appendMs, rates []float64
	patched, overlay                    []float64
	dropped, compactions                []float64 // per cycle
	proc                                procDeltas
}

func churnRefresh(r *run) error {
	path := filepath.Join(r.dir, "graph.txt")
	if err := writeSmallWorld(path, churnNodes, churnK, churnBeta, datasetSeed); err != nil {
		return err
	}
	log, err := r.digestLog()
	if err != nil {
		return err
	}
	var st churnStats
	var first []string // the first cycle's per-op digests
	r.openWindow()
	for cycle := 0; cycle == 0 || r.timeLeft(); cycle++ {
		digests, err := r.churnCycle(&st, path, cycle)
		if err != nil {
			return err
		}
		for i, d := range digests {
			var err error
			if cycle == 0 {
				err = log.note(i, d)
			} else if i >= len(first) || d != first[i] {
				err = fmt.Errorf("cycle %d op %d deployment digest %s differs from cycle 0", cycle, i, d)
			}
			if err != nil {
				r.fail(err)
			}
		}
		if cycle == 0 {
			first = digests
		}
	}
	if err := log.save(); err != nil {
		return err
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return err
	}
	r.endToEnd("setup_s", median(st.setupS), len(st.setupS))
	r.endToEnd("op_p50_ms", median(st.refreshMs), len(st.refreshMs))
	r.lines = append(r.lines, "# op_p50_ms is refresh_p50_ms here")
	r.showTail("refresh_p90_ms", "ms", st.refreshMs, 0.90)
	r.endToEnd("redemption", mean(st.rates), len(st.rates))
	r.endToEnd("peak_rss_mib", rss, 1)

	r.layer("gio.load_ms", median(st.loadMs), len(st.loadMs))
	r.layer("churn.snapshots_patched", median(st.patched), len(st.patched))
	r.layer("churn.overlay_edges", median(st.overlay), len(st.overlay))
	r.layer("churn.pools_dropped", median(st.dropped), len(st.dropped))
	r.layer("churn.compactions", median(st.compactions), len(st.compactions))
	if r.tr != nil {
		r.layer("churn.apply_ms", median(st.applyMs), len(st.applyMs))
		r.layer("churn.resolve_ms", median(st.resolveMs), len(st.resolveMs))
		r.layer("graph.append_ms", median(st.appendMs), len(st.appendMs))
		st.proc.report(r)
		r.overhead(st.tracedMs, st.untracedMs)
	}
	return nil
}

// churnCycle runs one set-up and one full edge stream, returning the per-op
// deployment digests. Op failures are counted on r; an error means the
// cycle could not run at all.
func (r *run) churnCycle(st *churnStats, path string, cycle int) ([]string, error) {
	ctx := context.Background()
	const seed = datasetSeed
	runtime.GC()
	t0 := time.Now()
	root := r.tr.begin("setup", 0, -1-cycle)
	sp := r.tr.begin("gio.load", root, -1-cycle)
	p, _, err := s3crm.LoadGraphProblem(path, s3crm.GraphConfig{Budget: churnBudget, Seed: datasetSeed})
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("loading input: %w", err)
	}
	t1 := time.Now()
	sp = r.tr.begin("campaign.holdout", root, -1-cycle)
	reduced, stream, err := p.HoldOutEdges(churnHoldOut, seed)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	order := rng.New(r.opt.seed)
	order.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	sp = r.tr.begin("campaign.new", root, -1-cycle)
	c, err := reduced.NewCampaign(
		s3crm.WithEngine("worldcache"), s3crm.WithModel("ic"),
		s3crm.WithSamples(churnSamples), s3crm.WithSeed(seed),
		s3crm.WithGPILimit(churnGPILimit), s3crm.WithWorkers(runtime.NumCPU()),
	)
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("new campaign: %w", err)
	}
	sp = r.tr.begin("campaign.solve", root, -1-cycle)
	prev, err := c.Solve(ctx, s3crm.WithSeed(seed))
	r.tr.end(sp)
	r.tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("pre-churn solve: %w", err)
	}
	st.setupS = append(st.setupS, time.Since(t0).Seconds())
	st.loadMs = append(st.loadMs, ms(t1.Sub(t0)))
	r.op(checkResult(prev, c.Users(), p.Budget()))
	st.rates = append(st.rates, prev.RedemptionRate)

	var mirror *graph.Graph
	if r.tr != nil {
		if mirror, err = mirrorLineage(path, stream); err != nil {
			return nil, err
		}
	}
	var digests []string
	dropped, compactions := 0, 0
	for b := 0; b*churnBatch < len(stream); b++ {
		op := cycle*1_000_000 + b
		batch := stream[b*churnBatch : min((b+1)*churnBatch, len(stream))]
		traced := r.tr != nil && b%2 == 1
		runtime.GC()
		var before procSample
		if r.tr != nil {
			before = readProc()
		}
		t0 := time.Now()
		root := r.beginIf(traced, "op", 0, op)
		sp := r.beginIf(traced, "churn.apply", root, op)
		cs, err := c.ApplyEdges(ctx, batch)
		r.endIf(traced, sp)
		t1 := time.Now()
		var res *s3crm.Result
		if err == nil {
			sp = r.beginIf(traced, "churn.resolve", root, op)
			res, err = c.Resolve(ctx, prev, s3crm.WithSeed(seed))
			r.endIf(traced, sp)
		}
		t2 := time.Now()
		r.endIf(traced, root)
		if r.tr != nil {
			st.proc = append(st.proc, before.to(readProc()))
		}
		if err == nil {
			err = checkResult(res, c.Users(), p.Budget())
		}
		r.op(err)
		if err != nil {
			return digests, nil // later batches build on this one
		}
		wall := ms(t2.Sub(t0))
		st.refreshMs = append(st.refreshMs, wall)
		st.rates = append(st.rates, res.RedemptionRate)
		st.patched = append(st.patched, float64(cs.SnapshotsPatched))
		st.overlay = append(st.overlay, float64(cs.OverlayEdges))
		dropped += cs.PoolsDropped
		if cs.Compacted {
			compactions++
		}
		digests = append(digests, digest(res))
		prev = res
		if traced {
			st.tracedMs = append(st.tracedMs, wall)
			st.applyMs = append(st.applyMs, ms(t1.Sub(t0)))
			st.resolveMs = append(st.resolveMs, ms(t2.Sub(t1)))
		} else if r.tr != nil {
			st.untracedMs = append(st.untracedMs, wall)
		}
		if mirror != nil {
			if mirror, err = r.mirrorAppend(st, mirror, batch, op); err != nil {
				return nil, err
			}
		}
	}
	st.dropped = append(st.dropped, float64(dropped))
	st.compactions = append(st.compactions, float64(compactions))
	return digests, nil
}

// mirrorLineage rebuilds the reduced graph the campaign starts from directly
// in the graph layer: the loaded edge list minus the held-out stream.
func mirrorLineage(path string, stream []s3crm.EdgeAdd) (*graph.Graph, error) {
	g, _, err := gio.LoadEdgeListFile(path, gio.LoadOptions{Model: gio.ModelWeightedCascade, Seed: datasetSeed})
	if err != nil {
		return nil, fmt.Errorf("mirror load: %w", err)
	}
	held := make(map[[2]int]bool, len(stream))
	for _, e := range stream {
		held[[2]int{e.From, e.To}] = true
	}
	all := g.Edges()
	kept := all[:0]
	for _, e := range all {
		if !held[[2]int{int(e.From), int(e.To)}] {
			kept = append(kept, e)
		}
	}
	return graph.FromEdges(g.NumNodes(), kept)
}

// mirrorAppend times graph.WithEdges of one batch on the mirrored lineage,
// outside any op, and compacts it when the campaign's rule would.
func (r *run) mirrorAppend(st *churnStats, g *graph.Graph, batch []s3crm.EdgeAdd, op int) (*graph.Graph, error) {
	edges := make([]graph.Edge, len(batch))
	for i, e := range batch {
		edges[i] = graph.Edge{From: int32(e.From), To: int32(e.To), P: e.P}
	}
	sp := r.tr.begin("graph.append", 0, op)
	t := time.Now()
	g2, err := g.WithEdges(edges)
	st.appendMs = append(st.appendMs, ms(time.Since(t)))
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("mirror append: %w", err)
	}
	if g2.OverlayEdges()*8 >= g2.NumEdges() {
		return g2.Compact()
	}
	return g2, nil
}
