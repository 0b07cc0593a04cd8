package diffusion

import (
	"slices"
	"testing"
)

// This file holds the scalar reference kernel: one possible world at a
// time, every edge probe answered by the stateless per-probe hash (the
// (seed, world, edge) coin under IC, the categorical in-row walk under LT)
// rather than by materialized rows. Production evaluates through the
// bit-parallel block kernel only; the kernel parity suite and
// FuzzKernelVsOracle compare it, field for field, against this oracle.

// hashBudget is a live-edge memory budget below one row under either
// model: a substrate built with it materializes nothing and hashes every
// probe. Tests keep their historical "hash" cases on it.
const hashBudget = 1

// substrates names the two substrate regimes the parity tests cover, by
// their historical names: "liveedge" (the default budget, rows
// materialized) and "hash" (hashBudget, every probe hashed).
var substrates = []struct {
	name   string
	budget int64
}{
	{"liveedge", 0},
	{"hash", hashBudget},
}

// simScratch holds per-world propagation state, reused across worlds via
// epoch stamping so large arrays are never cleared.
type simScratch struct {
	epoch int32
	stamp []int32 // stamp[v] == epoch ⇒ v active in current world
	seen  []int32 // seen[v] == epoch ⇒ v examined (activated or probed)
	hop   []int32
	queue []int32
}

func newSimScratch(n int) *simScratch {
	return &simScratch{
		stamp: make([]int32, n),
		seen:  make([]int32, n),
		hop:   make([]int32, n),
		queue: make([]int32, 0, 256),
	}
}

func (s *simScratch) reset() {
	s.epoch++
	if s.epoch == 0 { // wrapped; clear stamps once per 2^31 worlds
		for i := range s.stamp {
			s.stamp[i] = -1
			s.seen[i] = -1
		}
		s.epoch = 1
	}
	s.queue = s.queue[:0]
}

func (s *simScratch) active(v int32) bool { return s.stamp[v] == s.epoch }

func (s *simScratch) activate(v, hop int32) {
	s.stamp[v] = s.epoch
	s.hop[v] = hop
	s.queue = append(s.queue, v)
}

// see marks v as examined this world and reports whether it was new.
func (s *simScratch) see(v int32) bool {
	if s.seen[v] == s.epoch {
		return false
	}
	s.seen[v] = s.epoch
	return true
}

// oracleLive answers one probe by recomputing the model's draw from the
// coin, bypassing any materialized row.
func (e *Estimator) oracleLive(world, edge uint64, p float64) bool {
	if e.Live.lt {
		return e.Live.ltChoice(world, e.Live.target(edge)) == int32(edge)
	}
	return e.Coin.Live(world, edge, p)
}

// simWorld propagates one possible world for deployment d using scratch s,
// returning the world's benefit, realized SC cost, farthest hop, activated
// count and examined-node count. When rec is non-nil the world's activation
// order and scan state are appended to it.
func (e *Estimator) simWorld(s *simScratch, d *Deployment, world uint64, rec *worldRecord) (worldB, worldC float64, maxHop int32, activated, explored int) {
	g := e.Inst.G
	s.reset()
	for _, seed := range d.Seeds() {
		if !s.active(seed) {
			s.activate(seed, 0)
			if s.see(seed) {
				explored++
				if rec != nil {
					rec.probed = append(rec.probed, seed)
				}
			}
		}
	}
	for head := 0; head < len(s.queue); head++ {
		v := s.queue[head]
		worldB += e.Inst.Benefit[v]
		if s.hop[v] > maxHop {
			maxHop = s.hop[v]
		}
		coupons := d.K(v)
		stop, redeemed := 0, 0
		if coupons > 0 {
			targets, probs, keys, kbase := g.OutRow(v)
			base := uint64(kbase)
			j := 0
			for ; j < len(targets); j++ {
				if redeemed >= coupons {
					break
				}
				t := targets[j]
				if s.active(t) {
					continue // already active: no coupon consumed
				}
				if s.see(t) {
					explored++ // probed: a coin was flipped for t
					if rec != nil {
						rec.probed = append(rec.probed, t)
					}
				}
				ek := base + uint64(j)
				if keys != nil {
					ek = uint64(uint32(keys[j]))
				}
				if e.oracleLive(world, ek, probs[j]) {
					s.activate(t, s.hop[v]+1)
					worldC += e.Inst.SCCost[t]
					redeemed++
				}
			}
			stop = j
		}
		if rec != nil {
			rec.nodes = append(rec.nodes, v)
			rec.scanStop = append(rec.scanStop, int32(stop))
			rec.scanRed = append(rec.scanRed, int32(redeemed))
		}
	}
	return worldB, worldC, maxHop, len(s.queue), explored
}

// oracleRun simulates worlds [lo, hi) one at a time and returns means over
// that slice tagged with its weight relative to the full sample count.
func (e *Estimator) oracleRun(d *Deployment, lo, hi int) Result {
	s := newSimScratch(e.Inst.G.NumNodes())
	var sumB, sumB2, sumC, sumA, sumH, sumX float64
	for w := lo; w < hi; w++ {
		worldB, worldC, maxHop, activated, explored := e.simWorld(s, d, uint64(w), nil)
		sumB += worldB
		sumB2 += worldB * worldB
		sumC += worldC
		sumA += float64(activated)
		sumH += float64(maxHop)
		sumX += float64(explored)
	}
	count := float64(hi - lo)
	if count == 0 {
		return Result{}
	}
	r := Result{
		Benefit:       sumB / count,
		RealizedCost:  sumC / count,
		Activated:     sumA / count,
		FarthestHop:   sumH / count,
		Explored:      sumX / count,
		BenefitSqMean: sumB2 / count,
	}
	r.weight = count / float64(e.Samples)
	return r
}

// oracleEvaluate is Estimator.Evaluate on the scalar kernel: the same
// per-worker world split and the same weighted fold, run sequentially.
func (e *Estimator) oracleEvaluate(d *Deployment) Result {
	workers := e.Workers
	if workers <= 1 || e.Samples < 4*workers {
		return e.oracleRun(d, 0, e.Samples)
	}
	var total Result
	per, extra, start := e.Samples/workers, e.Samples%workers, 0
	for w := 0; w < workers; w++ {
		count := per
		if w < extra {
			count++
		}
		r := e.oracleRun(d, start, start+count)
		start += count
		total.Benefit += r.Benefit * r.weight
		total.RealizedCost += r.RealizedCost * r.weight
		total.Activated += r.Activated * r.weight
		total.FarthestHop += r.FarthestHop * r.weight
		total.Explored += r.Explored * r.weight
		total.BenefitSqMean += r.BenefitSqMean * r.weight
	}
	total.weight = 1
	return total
}

// estimatorOf returns the estimator an engine evaluates through.
func estimatorOf(ev Evaluator) *Estimator {
	if wc, ok := ev.(*WorldCache); ok {
		return wc.Est
	}
	return ev.(*Estimator)
}

// oracleEvaluateDelta is WorldCache.EvaluateDelta on the scalar kernel: the
// base deployment's per-world benefits summed in world order, plus the
// change in every world where the base activates a changed node.
func (wc *WorldCache) oracleEvaluateDelta(d *Deployment, changed []int32) float64 {
	e := wc.Est
	s := newSimScratch(e.Inst.G.NumNodes())
	baseB := make([]float64, e.Samples)
	var affected []int
	sum := 0.0
	for w := 0; w < e.Samples; w++ {
		var rec worldRecord
		baseB[w], _, _, _, _ = e.simWorld(s, wc.base, uint64(w), &rec)
		sum += baseB[w]
		for _, v := range changed {
			if slices.Contains(rec.nodes, v) {
				affected = append(affected, w)
				break
			}
		}
	}
	for _, w := range affected {
		b, _, _, _, _ := e.simWorld(s, d, uint64(w), nil)
		sum += b - baseB[w]
	}
	return sum / float64(e.Samples)
}

// checkSnapshots compares every world snapshot of the cache against the
// scalar oracle re-simulating the cache's base deployment: activation
// order, scan state and aggregates exactly, the probed set as a set (the
// incremental patches append late probes out of simulation order), and the
// world-major and dense membership tiers wherever they are materialized.
func checkSnapshots(t testing.TB, wc *WorldCache) {
	t.Helper()
	e := wc.Est
	s := newSimScratch(e.Inst.G.NumNodes())
	for w := range wc.worlds {
		var rec worldRecord
		b, c, hop, act, expl := e.simWorld(s, wc.base, uint64(w), &rec)
		ws := &wc.worlds[w]
		if ws.benefit != b || ws.cost != c || ws.hop != hop || int(ws.activated) != act || int(ws.explored) != expl {
			t.Fatalf("world %d: snapshot (B=%v C=%v hop=%d act=%d expl=%d) != oracle (B=%v C=%v hop=%d act=%d expl=%d)",
				w, ws.benefit, ws.cost, ws.hop, ws.activated, ws.explored, b, c, hop, act, expl)
		}
		if !slices.Equal(ws.rec.nodes, rec.nodes) || !slices.Equal(ws.rec.scanStop, rec.scanStop) || !slices.Equal(ws.rec.scanRed, rec.scanRed) {
			t.Fatalf("world %d: record %v/%v/%v != oracle %v/%v/%v", w,
				ws.rec.nodes, ws.rec.scanStop, ws.rec.scanRed, rec.nodes, rec.scanStop, rec.scanRed)
		}
		gotProbed := slices.Sorted(slices.Values(ws.rec.probed))
		if want := slices.Sorted(slices.Values(rec.probed)); !slices.Equal(gotProbed, want) {
			t.Fatalf("world %d: probed set %v != oracle %v", w, gotProbed, want)
		}
		if wc.act != nil {
			abits := wc.act[w*wc.actWords : (w+1)*wc.actWords]
			sbits := wc.seen[w*wc.actWords : (w+1)*wc.actWords]
			for v := int32(0); v < int32(e.Inst.G.NumNodes()); v++ {
				bit := uint64(1) << (uint(v) & 63)
				if (abits[v>>6]&bit != 0) != slices.Contains(rec.nodes, v) {
					t.Fatalf("world %d node %d: activation bit disagrees with the oracle", w, v)
				}
				if (sbits[v>>6]&bit != 0) != slices.Contains(rec.probed, v) {
					t.Fatalf("world %d node %d: seen bit disagrees with the oracle", w, v)
				}
			}
		}
		if wc.dense {
			for v := int32(0); v < int32(e.Inst.G.NumNodes()); v++ {
				i := slices.Index(rec.nodes, v)
				row := wc.worldRow(v)
				if (row[w>>6]&(1<<(uint(w)&63)) != 0) != (i >= 0) {
					t.Fatalf("world %d node %d: dense activation bit disagrees with the oracle", w, v)
				}
				idx := int(v)*e.Samples + w
				if i >= 0 && (wc.denseStop[idx] != rec.scanStop[i] || wc.denseRed[idx] != rec.scanRed[i]) {
					t.Fatalf("world %d node %d: dense scan state (%d, %d) != oracle (%d, %d)",
						w, v, wc.denseStop[idx], wc.denseRed[idx], rec.scanStop[i], rec.scanRed[i])
				}
			}
		}
	}
}
