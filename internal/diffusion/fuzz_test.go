package diffusion

import (
	"context"
	"testing"

	"s3crm/internal/graph"
	"s3crm/internal/rng"
)

// FuzzKernelVsOracle is the differential target for the world-evaluation
// kernel: on a random graph of up to 12 users, a random deployment, 1–130
// possible worlds (so blocks are ragged), either triggering model and
// either substrate regime (the default memory budget, or one below a single
// row so every probe hashes), Estimator.Evaluate and WorldCache.Rebase must
// equal the scalar oracle field for field — and keep doing so after an
// incremental move of the cache's base (one extra coupon, then one extra
// seed), with every world snapshot matching the oracle's.
func FuzzKernelVsOracle(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(12), uint8(64), false, false, uint64(3))
	f.Add(uint64(2), uint8(12), uint8(60), uint8(129), true, false, uint64(5))
	f.Add(uint64(3), uint8(9), uint8(30), uint8(70), true, true, uint64(8))
	f.Add(uint64(4), uint8(1), uint8(0), uint8(0), false, true, uint64(0))
	f.Fuzz(func(t *testing.T, graphSeed uint64, nodes, edges, samples uint8, lt, hashed bool, depSeed uint64) {
		n := 1 + int(nodes)%12
		src := rng.New(graphSeed)
		// LT needs every user's in-weights to sum to at most 1: cap each
		// weight at 1/n, below that bound for any in-degree.
		pmax := 1.0
		model := ModelIC
		if lt {
			pmax, model = 1/float64(n), ModelLT
		}
		seen := make(map[[2]int32]bool)
		var es []graph.Edge
		for tries := 0; tries < int(edges); tries++ {
			from, to := int32(src.Intn(n)), int32(src.Intn(n))
			if from == to || seen[[2]int32{from, to}] {
				continue
			}
			seen[[2]int32{from, to}] = true
			es = append(es, graph.Edge{From: from, To: to, P: pmax * (0.05 + 0.95*src.Float64())})
		}
		g, err := graph.FromEdges(n, es)
		if err != nil {
			t.Fatal(err)
		}
		inst := &Instance{
			G:        g,
			Benefit:  make([]float64, n),
			SeedCost: make([]float64, n),
			SCCost:   make([]float64, n),
			Budget:   1e9,
		}
		for i := 0; i < n; i++ {
			inst.Benefit[i] = 0.5 + src.Float64()
			inst.SeedCost[i] = 1 + src.Float64()
			inst.SCCost[i] = 0.2 + src.Float64()
		}
		budget := int64(0)
		if hashed {
			budget = hashBudget
		}
		dsrc := rng.New(depSeed)
		ev, err := NewEngineOpts(inst, EngineOptions{
			Model: model, Samples: 1 + int(samples)%130, Seed: graphSeed ^ depSeed,
			Workers: dsrc.Intn(4), LiveEdgeMemBudget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		est := ev.(*Estimator)

		d := NewDeployment(n)
		for i := 0; i < 1+dsrc.Intn(3); i++ {
			d.AddSeed(int32(dsrc.Intn(n)))
		}
		for v := int32(0); v < int32(n); v++ {
			d.SetK(v, dsrc.Intn(g.OutDegree(v)+1))
		}
		if got, want := est.Evaluate(d), est.oracleEvaluate(d); got != want {
			t.Fatalf("Evaluate %v != oracle %v", got, want)
		}

		seq := est.View(context.Background(), 0) // Rebase folds in world order, like a sequential sweep
		wc := &WorldCache{Est: est}
		check := func(step string) {
			if got, want := wc.Rebase(d), seq.oracleEvaluate(d); got != want {
				t.Fatalf("%s: Rebase %v != oracle %v", step, got, want)
			}
			checkSnapshots(t, wc)
		}
		check("full rebase")
		for v := int32(0); v < int32(n); v++ {
			if d.K(v) < g.OutDegree(v) {
				d.AddK(v, 1)
				check("coupon advance")
				break
			}
		}
		// Seeds are kept sorted, so only a seed past every current one is an
		// appended seed — the incremental advanceSeed move.
		for v := int32(n - 1); v >= 0; v-- {
			if !d.IsSeed(v) {
				d.AddSeed(v)
				check("seed advance")
				break
			}
		}
	})
}
