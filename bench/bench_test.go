package main

import (
	"encoding/json"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"s3crm"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.95, 10}, {0.1, 1}, {0, 1}, {1, 10},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{200, 0.95, true}, // rank 190, 10 beyond
		{199, 0.95, false},
		{100, 0.90, true},
		{99, 0.90, false},
		{1000, 0.99, true},
		{999, 0.99, false},
		{0, 0.5, false},
	} {
		if got := tailOK(c.n, c.q); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v (beyond %d), want %v", c.n, c.q, got, beyond(c.n, c.q), c.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},
		{ID: 5, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{"op": 100 - 50 - 10, "a": 25, "b": 30 + 30, "c": 5} {
		if self[name] != want {
			t.Errorf("self(%s) = %v, want %v", name, self[name], want)
		}
	}
	if got := coverage(spans, "op"); got != 0.6 {
		t.Errorf("coverage = %v, want 0.6", got)
	}
}

func TestPhaseCutsFromEvents(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	var evs []stamp
	for _, e := range []struct {
		phase string
		ms    int
	}{
		{"pivot", 10}, {"id", 20}, {"id", 30}, {"gpi", 50}, {"scm", 60}, {"scm", 70}, {"select", 80},
	} {
		evs = append(evs, stamp{at(e.ms), s3crm.Event{Phase: e.phase}})
	}
	got := phaseTotals(phaseCuts(at(0), at(100), evs))
	want := map[string]float64{"pivot": 20, "id": 30, "gpi": 10, "scm": 20, "select": 0, finalPhase: 20}
	sum := 0.0
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %v ms, want %v", name, got[name], w)
		}
		sum += got[name]
	}
	if sum != 100 {
		t.Errorf("phases sum to %v ms, want the whole 100 ms call", sum)
	}

	// A phase that recurs after another is cut twice and summed.
	again := append(evs[:2:2], stamp{at(40), s3crm.Event{Phase: "pivot"}})
	if got := phaseTotals(phaseCuts(at(0), at(50), again)); got["pivot"] != 20 || got["id"] != 20 || got[finalPhase] != 10 {
		t.Errorf("recurring phase cut as %v", got)
	}
	if got := phaseTotals(phaseCuts(at(0), at(7), nil)); got[finalPhase] != 7 {
		t.Errorf("no events: %v, want everything final", got)
	}
}

func TestCheckResult(t *testing.T) {
	ok := func() *s3crm.Result {
		return &s3crm.Result{
			Seeds: []int{0, 3}, Coupons: map[int]int{3: 2},
			Benefit: 20, TotalCost: 10, RedemptionRate: 2,
		}
	}
	if err := checkResult(ok(), 4, 10); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	if err := checkResult(ok(), 4, 9.5); err == nil {
		t.Error("over-budget result accepted")
	}
	bad := ok()
	bad.Seeds = append(bad.Seeds, 4)
	if err := checkResult(bad, 4, 10); err == nil {
		t.Error("seed outside the user range accepted")
	}
	bad = ok()
	bad.Coupons[7] = 1
	if err := checkResult(bad, 4, 10); err == nil {
		t.Error("coupon holder outside the user range accepted")
	}
	bad = ok()
	bad.RedemptionRate = 2.5
	if err := checkResult(bad, 4, 10); err == nil {
		t.Error("redemption rate inconsistent with Benefit/TotalCost accepted")
	}
}

func TestDigestLogCatchesChangedDeployment(t *testing.T) {
	dir := t.TempDir()
	a := &s3crm.Result{Seeds: []int{2, 1}, Coupons: map[int]int{1: 1, 2: 3}}
	b := &s3crm.Result{Seeds: []int{1, 2}, Coupons: map[int]int{1: 1, 2: 2}}
	if digest(a) == digest(b) {
		t.Fatal("different coupon counts share a digest")
	}
	l, err := openDigestLog(dir, "b1", "w", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.note(0, digest(a)); err != nil {
		t.Fatal(err)
	}
	if err := l.save(); err != nil {
		t.Fatal(err)
	}
	l, err = openDigestLog(dir, "b1", "w", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.note(0, digest(b)); err == nil {
		t.Error("a changed deployment for the same op and seed went unnoticed")
	}
	l, err = openDigestLog(dir, "b2", "w", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.note(0, digest(b)); err != nil {
		t.Errorf("another build's log was compared: %v", err)
	}
}

func TestMetricListsMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", endToEndDefs, m.EndToEnd)
	same("per_layer", perLayerDefs, m.PerLayer)
	if len(m.Workload) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(m.Workload), len(workloads))
	}
	for _, w := range m.Workload {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no function that runs it", w.Name)
		}
	}
}

func TestTracerConcurrentAdd(t *testing.T) {
	tr := newTracer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				now := time.Now()
				root := tr.add("op", 0, g, now, now.Add(time.Millisecond))
				tr.add("child", root, g, now, now.Add(time.Millisecond))
				tr.end(tr.begin("probe", 0, g))
			}
		}()
	}
	wg.Wait()
	if len(tr.spans) != 8*100*3 {
		t.Fatalf("recorded %d spans, want %d", len(tr.spans), 8*100*3)
	}
	for i, s := range tr.spans {
		if s.ID != i+1 {
			t.Fatalf("span %d has id %d", i, s.ID)
		}
	}
	if got := coverage(tr.spans, "op"); got != 1 {
		t.Errorf("every op is covered by its child, got coverage %v", got)
	}
}
