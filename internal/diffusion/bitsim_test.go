package diffusion

import (
	"testing"

	"s3crm/internal/rng"
)

// buildEngine constructs one engine of the parity grid. budget 0 is the
// default live-edge budget, hashBudget hashes every probe.
func buildEngine(t testing.TB, inst *Instance, engine, model string, budget int64, samples int, seed uint64, workers int) Evaluator {
	t.Helper()
	ev, err := NewEngineOpts(inst, EngineOptions{
		Engine: engine, Model: model, LiveEdgeMemBudget: budget,
		Samples: samples, Seed: seed, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestBitParallelScalarParity is the kernel's contract: across every
// (engine, model, substrate) cell and at sample counts exercising full and
// ragged tail blocks, the bit-parallel kernel returns Results bit-identical
// to the scalar oracle — every field, not just the benefit. The 37- and
// 70-sample cells force partial block masks (37 < 64 < 70 < 128), the
// 200-sample cell a multi-block run.
func TestBitParallelScalarParity(t *testing.T) {
	inst := liveEdgeInstance(t)
	for _, engine := range []string{EngineMC, EngineWorldCache} {
		for _, model := range Models() {
			for _, sub := range substrates {
				for _, samples := range []int{37, 70, 200} {
					t.Run(engine+"/"+model+"/"+sub.name, func(t *testing.T) {
						ev := buildEngine(t, inst, engine, model, sub.budget, samples, 7, 0)
						for i, d := range liveEdgeDeployments(inst) {
							got, want := ev.Evaluate(d), estimatorOf(ev).oracleEvaluate(d)
							if got != want {
								t.Fatalf("samples=%d deployment %d: bitparallel %v != oracle %v", samples, i, got, want)
							}
						}
					})
				}
			}
		}
	}
}

// TestBitParallelHashICFallback pins the sub-row budget under both models:
// the substrate materializes no liveness rows, and the block kernel still
// runs — hashing per probed world inside BlockMask — with results identical
// to the oracle.
func TestBitParallelHashICFallback(t *testing.T) {
	inst := liveEdgeInstance(t)
	for _, model := range Models() {
		ev := buildEngine(t, inst, EngineMC, model, hashBudget, 128, 9, 0)
		est := ev.(*Estimator)
		for i, d := range liveEdgeDeployments(inst) {
			if got, want := est.Evaluate(d), est.oracleEvaluate(d); got != want {
				t.Fatalf("%s deployment %d: bitparallel %v != oracle %v", model, i, got, want)
			}
		}
		if est.BlockEvals() == 0 {
			t.Fatalf("%s: a sub-row budget ran no block evaluations", model)
		}
		if spent := est.Live.SpentBytes(); spent != 0 {
			t.Fatalf("%s: a sub-row budget committed %d bytes", model, spent)
		}
	}
}

// TestBitParallelMemCapParity squeezes the live-edge budget to three rows,
// so block probes mix one-load materialized masks with the per-bit coin
// fallback inside a single scan. Outcomes must stay identical to the oracle.
func TestBitParallelMemCapParity(t *testing.T) {
	inst := liveEdgeInstance(t)
	const samples = 100
	rowBytes := int64((samples + 63) / 64 * 8)
	est := buildEngine(t, inst, EngineMC, ModelIC, 3*rowBytes, samples, 3, 0).(*Estimator)
	for i, d := range liveEdgeDeployments(inst) {
		if got, want := est.Evaluate(d), est.oracleEvaluate(d); got != want {
			t.Fatalf("deployment %d: bitparallel %v != oracle %v under a 3-row budget", i, got, want)
		}
	}
	if est.BlockEvals() == 0 {
		t.Fatal("capped substrate ran no block evaluations")
	}
}

// TestBitParallelWorkersParity checks the kernel matches the oracle exactly
// at every worker count: both share the same (unaligned) worker splits, so
// the partial blocks a split boundary cuts must reproduce the scalar
// per-world outcomes bit for bit. (Parallel vs sequential differs in the
// last float bits by the per-range fold — that cross-count drift is pinned
// to tolerance, not exactness.)
func TestBitParallelWorkersParity(t *testing.T) {
	inst := liveEdgeInstance(t)
	const samples = 200
	d := liveEdgeDeployments(inst)[0]
	want := buildEngine(t, inst, EngineMC, ModelIC, 0, samples, 7, 0).Evaluate(d)
	for _, workers := range []int{2, 3, 7} {
		est := buildEngine(t, inst, EngineMC, ModelIC, 0, samples, 7, workers).(*Estimator)
		got, oracle := est.Evaluate(d), est.oracleEvaluate(d)
		if got != oracle {
			t.Fatalf("workers=%d: bitparallel %v != oracle %v", workers, got, oracle)
		}
		if !almost(got.Benefit, want.Benefit, 1e-9) || !almost(got.FarthestHop, want.FarthestHop, 1e-9) {
			t.Fatalf("workers=%d: parallel %v drifted from sequential %v", workers, got, want)
		}
	}
}

// TestWorldCacheBitParallelSequenceParity drives the world cache through a
// rebase chain — coupon increments, seed additions, candidate delta sweeps
// and sparse delta evaluations — and checks every answer against the scalar
// oracle: each Rebase result field for field, every world snapshot, and
// each EvaluateDelta exactly. Candidate deltas must match a cache cold-
// rebased onto the same deployment. The chain covers the incremental paths
// the Rebase fast paths take (advance, advanceSeed, patch vs re-simulate)
// on top of the full-rebase block kernel, at a sample count with a ragged
// tail block.
func TestWorldCacheBitParallelSequenceParity(t *testing.T) {
	inst := randomInstance(t, 40, 140, 61)
	const samples = 170 // 2 full blocks + a 42-world tail
	wc := NewWorldCache(inst, samples, 63, 0)
	d := randomDeployment(inst, 2, 5, 62)
	src := rng.New(64)
	for step := 0; step < 8; step++ {
		if step%3 == 2 {
			v := int32(src.Intn(inst.G.NumNodes()))
			for d.IsSeed(v) {
				v = int32(src.Intn(inst.G.NumNodes()))
			}
			d.AddSeed(v)
		} else {
			v := int32(src.Intn(inst.G.NumNodes()))
			if d.K(v) < inst.G.OutDegree(v) {
				d.AddK(v, 1)
			}
		}
		var cands []int32
		for v := int32(0); v < int32(inst.G.NumNodes()); v++ {
			if d.K(v) < inst.G.OutDegree(v) {
				cands = append(cands, v)
			}
		}
		if got, want := wc.Rebase(d), wc.Est.oracleEvaluate(d); got != want {
			t.Fatalf("step %d: Rebase %v != oracle %v", step, got, want)
		}
		checkSnapshots(t, wc)
		cold := NewWorldCache(inst, samples, 63, 0)
		cold.Rebase(d)
		got, want := wc.DeltaBenefits(cands), cold.DeltaBenefits(cands)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d candidate %d: delta %v != cold %v", step, cands[i], got[i], want[i])
			}
		}
		trial := d.Clone()
		v := cands[src.Intn(len(cands))]
		trial.AddK(v, 1)
		if got, want := wc.EvaluateDelta(trial, []int32{v}), wc.oracleEvaluateDelta(trial, []int32{v}); got != want {
			t.Fatalf("step %d: EvaluateDelta %v != oracle %v", step, got, want)
		}
	}
}

// TestWorldCacheBitParallelTiersParity repeats the chain under each
// membership tier: dense bit rows, the CSR inverted index and the stamp
// sweep must all keep every Rebase result and snapshot identical to the
// scalar oracle.
func TestWorldCacheBitParallelTiersParity(t *testing.T) {
	inst := randomInstance(t, 40, 140, 61)
	const samples = 170
	origAct, origDense := maxActBitsetBytes, maxDenseScanBytes
	defer func() { maxActBitsetBytes, maxDenseScanBytes = origAct, origDense }()
	for _, tier := range []struct {
		name       string
		act, dense int64
	}{
		{"dense", origAct, origDense},
		{"index", origAct, 0},
		{"sweep", 0, 0},
	} {
		maxActBitsetBytes, maxDenseScanBytes = tier.act, tier.dense
		wc := NewWorldCache(inst, samples, 63, 0)
		d := randomDeployment(inst, 2, 5, 62)
		src := rng.New(64)
		for step := 0; step < 6; step++ {
			if step%2 == 0 {
				v := int32(src.Intn(inst.G.NumNodes()))
				if d.K(v) < inst.G.OutDegree(v) {
					d.AddK(v, 1)
				}
			} else {
				v := int32(src.Intn(inst.G.NumNodes()))
				for d.IsSeed(v) {
					v = int32(src.Intn(inst.G.NumNodes()))
				}
				d.AddSeed(v)
			}
			if got, want := wc.Rebase(d), wc.Est.oracleEvaluate(d); got != want {
				t.Fatalf("%s tier step %d: Rebase %v != oracle %v", tier.name, step, got, want)
			}
			checkSnapshots(t, wc)
		}
	}
}

// TestWorldCacheBitParallelRebaseWorkers checks the block-aligned parallel
// rebase split: results and subsequent delta sweeps are bit-identical to
// the sequential rebase at every worker count.
func TestWorldCacheBitParallelRebaseWorkers(t *testing.T) {
	inst := randomInstance(t, 40, 140, 61)
	const samples = 170
	d := randomDeployment(inst, 2, 5, 62)
	var cands []int32
	for v := int32(0); v < int32(inst.G.NumNodes()); v++ {
		if d.K(v) < inst.G.OutDegree(v) {
			cands = append(cands, v)
		}
	}
	base := NewWorldCache(inst, samples, 63, 0)
	wantRes := base.Rebase(d)
	wantDeltas := base.DeltaBenefits(cands)
	for _, workers := range []int{2, 3, 5} {
		wc := NewWorldCache(inst, samples, 63, workers)
		if got := wc.Rebase(d); got != wantRes {
			t.Fatalf("workers=%d: Rebase %v != sequential %v", workers, got, wantRes)
		}
		deltas := wc.DeltaBenefits(cands)
		for i := range wantDeltas {
			if deltas[i] != wantDeltas[i] {
				t.Fatalf("workers=%d candidate %d: delta %v != sequential %v",
					workers, cands[i], deltas[i], wantDeltas[i])
			}
		}
	}
}

// TestBenefitSqMeanMoments pins the second-moment channel the kernel
// feeds the serving layer's error bars: E[B²] can never fall below (E[B])²
// (Jensen), and a single world is degenerate (E[B²] = (E[B])² exactly).
// The struct equality in the parity tests above pins it to the oracle.
func TestBenefitSqMeanMoments(t *testing.T) {
	inst := liveEdgeInstance(t)
	ev := buildEngine(t, inst, EngineMC, ModelIC, 0, 128, 7, 0)
	for i, d := range liveEdgeDeployments(inst) {
		res := ev.Evaluate(d)
		if res.BenefitSqMean < res.Benefit*res.Benefit-1e-9 {
			t.Fatalf("deployment %d: E[B²]=%v < (E[B])²=%v", i, res.BenefitSqMean, res.Benefit*res.Benefit)
		}
	}
	one := buildEngine(t, inst, EngineMC, ModelIC, 0, 1, 7, 0)
	res := one.Evaluate(liveEdgeDeployments(inst)[0])
	if !almost(res.BenefitSqMean, res.Benefit*res.Benefit, 1e-12) {
		t.Fatalf("single world: E[B²]=%v, (E[B])²=%v — must coincide",
			res.BenefitSqMean, res.Benefit*res.Benefit)
	}
}
