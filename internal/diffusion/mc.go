package diffusion

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"s3crm/internal/rng"
)

// Estimator estimates B(S, K) by Monte-Carlo simulation of the
// capacity-constrained triggering model. It is the EngineMC implementation
// of Evaluator and the simulation substrate the world-cache engine builds
// on. The kernel itself is model-agnostic — it sweeps reachability over a
// possible world's fixed edge-liveness assignment — and the triggering
// model (IC or LT, see Models) owns how that assignment is drawn, behind
// the Live substrate.
//
// Edge liveness is a stateless function of (seed, world, edge) — under IC a
// per-edge hash, under LT a per-target-node categorical draw — so two
// deployments evaluated by the same Estimator see identical possible worlds
// — common random numbers. Marginal gains B(D') − B(D) computed from the
// same Estimator are therefore far less noisy than with independent
// sampling, which is what makes the greedy marginal-redemption comparisons
// of S3CA stable at modest sample counts.
type Estimator struct {
	Inst    *Instance
	Samples int // number of possible worlds; must be > 0
	Coin    rng.Coin
	Workers int // parallel workers; <= 1 means sequential
	// Live is the model-aware liveness substrate every edge probe reads:
	// materialized per-world rows within its memory budget, the stateless
	// per-probe hash past it, with identical outcomes either way (the rows
	// hold the hash function's own draws). Always present for a positive
	// sample count — NewEstimator, NewEngineOpts and WithGraph build it.
	Live *LiveEdges

	// ctx, when non-nil, is checked periodically inside the simulation
	// loop so a cancelled serving request aborts mid-evaluation instead of
	// finishing the full sample sweep. Set only on per-call Views; a
	// cancelled evaluation returns garbage aggregates, so callers must
	// check ctx.Err() before using any value produced after cancellation.
	ctx context.Context

	blockPoolOnce sync.Once
	blockPool     sync.Pool // of *blockScratch, reused across evaluations

	evals  atomic.Int64 // number of Evaluate calls, for instrumentation
	blocks atomic.Int64 // number of 64-world blocks the block kernel swept
}

// cancelled reports whether the estimator's per-call context (if any) has
// been cancelled — the MC kernel's abort check, also consulted by the
// world-cache engine's re-simulation sweeps.
func (e *Estimator) cancelled() bool {
	return e.ctx != nil && e.ctx.Err() != nil
}

// View returns a per-call estimator sharing the receiver's possible worlds
// — the same coin stream and the same (lazily filled, concurrency-safe)
// live-edge substrate — but carrying its own cancellation context, worker
// count and instrumentation counters. Views of one estimator may evaluate
// concurrently; results are identical to the receiver's by construction,
// because edge liveness depends only on (seed, world, edge).
func (e *Estimator) View(ctx context.Context, workers int) *Estimator {
	return &Estimator{
		Inst:    e.Inst,
		Samples: e.Samples,
		Coin:    e.Coin,
		Workers: workers,
		Live:    e.Live,
		ctx:     ctx,
	}
}

// NewEstimator returns an independent-cascade estimator over inst with the
// given sample count and coin seed, probing through a live-edge substrate
// under the default memory budget. NewEngineOpts builds estimators for the
// other triggering models and budgets.
func NewEstimator(inst *Instance, samples int, seed uint64) *Estimator {
	coin := rng.NewCoin(seed)
	return &Estimator{
		Inst: inst, Samples: samples, Coin: coin,
		Live: NewLiveEdges(inst.G, samples, coin, 0),
	}
}

// Result aggregates one deployment's Monte-Carlo outcome.
type Result struct {
	Benefit      float64 // expected total benefit of activated users
	RealizedCost float64 // expected SC cost actually paid for redemptions
	Activated    float64 // expected number of activated users
	FarthestHop  float64 // expected maximum hop distance from the seeds
	Explored     float64 // expected nodes examined per world: activated plus probed inactive out-neighbours
	// BenefitSqMean is the mean of the squared per-world benefit — the
	// second raw moment the serving layer turns into a Monte-Carlo
	// standard-error bar (stats.StdErrFromMoments), accumulated from the
	// same per-world benefit values as Benefit itself.
	BenefitSqMean float64

	// weight is the fraction of the full sample count a partial result
	// covers; used when combining per-worker results.
	weight float64
}

// Benefit estimates B(S, K).
func (e *Estimator) Benefit(d *Deployment) float64 {
	return e.Evaluate(d).Benefit
}

// RedemptionRate estimates the S3CRM objective B/(Cseed+Csc); it returns 0
// when the total cost is zero (the empty deployment).
func (e *Estimator) RedemptionRate(d *Deployment) float64 {
	cost := e.Inst.TotalCost(d)
	if cost <= 0 {
		return 0
	}
	return e.Benefit(d) / cost
}

// Evals returns the number of Evaluate calls made so far.
func (e *Estimator) Evals() int64 { return e.evals.Load() }

// BlockEvals returns the number of 64-world blocks the bit-parallel kernel
// has swept. Instrumentation for the solver's stats.
func (e *Estimator) BlockEvals() int64 { return e.blocks.Load() }

// Evaluate runs the full simulation and returns all aggregate metrics.
func (e *Estimator) Evaluate(d *Deployment) Result {
	if e.Samples <= 0 {
		panic("diffusion: Estimator with non-positive sample count")
	}
	e.evals.Add(1)
	workers := e.Workers
	if workers <= 1 || e.Samples < 4*workers {
		return e.run(d, 0, e.Samples)
	}
	results := make([]Result, workers)
	var wg sync.WaitGroup
	per := e.Samples / workers
	extra := e.Samples % workers
	start := 0
	for w := 0; w < workers; w++ {
		count := per
		if w < extra {
			count++
		}
		lo, hi := start, start+count
		start = hi
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			results[w] = e.run(d, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	var total Result
	for w := 0; w < workers; w++ {
		total.Benefit += results[w].Benefit * results[w].weight
		total.RealizedCost += results[w].RealizedCost * results[w].weight
		total.Activated += results[w].Activated * results[w].weight
		total.FarthestHop += results[w].FarthestHop * results[w].weight
		total.Explored += results[w].Explored * results[w].weight
		total.BenefitSqMean += results[w].BenefitSqMean * results[w].weight
	}
	total.weight = 1
	return total
}

// worldRecord captures one world's final state for the world-cache engine:
// the activated nodes in activation order and, for each, where its coupon
// offer scan stopped. scanStop is the adjacency position of the first
// neighbour never offered a coupon (the node's out-degree when the scan ran
// to the end of the list); scanRed is how many coupons the scan redeemed. A
// scan with scanRed == K stopped for lack of coupons, so granting one more
// coupon resumes exactly at scanStop. probed lists every node examined in
// the world — activated or offered a coupon — in first-examination order;
// its length is the world's Explored count, and the world cache rebuilds
// its seen-bitsets from it when patching scans incrementally.
type worldRecord struct {
	nodes    []int32
	scanStop []int32
	scanRed  []int32
	probed   []int32
}

// String implements fmt.Stringer for debugging.
func (r Result) String() string {
	return fmt.Sprintf("Result{B=%.4g, Creal=%.4g, act=%.3g, hop=%.3g}",
		r.Benefit, r.RealizedCost, r.Activated, r.FarthestHop)
}
