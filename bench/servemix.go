package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"s3crm"
	"s3crm/internal/diffusion"
	"s3crm/internal/rng"
	"s3crm/internal/serve"
)

// serve-mix: a fresh s3crmd with default flags serves an Epinions scale-100
// scenario (760 users). One client process with at most nproc connections
// sends an open-loop schedule at 20 requests/s in 250 ms cycles: a /solve at
// the cycle's start, then four /evaluates of one deployment each, 150, 175,
// 200 and 225 ms in. A warm pinned solve takes 75 to 105 ms, so no evaluate
// shares the daemon with a solve. Spread evenly, every 50 ms, the evaluate
// 100 ms after a solve overlapped it only when that solve ran long, and the
// evaluate median moved with how many did. Every request pins its seed from
// a cycle of serveSeeds seeds, so each request's work does not depend on
// arrival order and the daemon's 16 engine pools hold the whole working set.
// Before the window opens every seed is solved and evaluated once, untimed,
// so the timed requests find their pools built. The rate stays well below
// saturation; overload is out of scope.
const (
	serveScale    = 100
	serveCycle    = 250 * time.Millisecond
	servePerCycle = 5 // request i is a /solve when i%servePerCycle == 0
	serveSeeds    = 6 // 6 seeds and their scorer streams plus the default: 13 of 16 pools
	serveSetups   = 21
	serveSamples  = 1000 // the daemon's default sample count
	serveProbes   = 8    // evaluate deployments probed in the diffusion layer (traced runs)
)

// serveOffsets places each request of a cycle: the /solve first, then the
// four /evaluates once the solve is done.
var serveOffsets = [servePerCycle]time.Duration{0, 150 * time.Millisecond, 175 * time.Millisecond, 200 * time.Millisecond, 225 * time.Millisecond}

// request is one scheduled call and what came of it.
type request struct {
	solve bool
	body  []byte
	seed  uint64
	dep   s3crm.Deployment

	due, sent, done time.Time
	rate            float64 // solve results' redemption rate
	err             error
}

func serveMix(r *run) error {
	gp, err := s3crm.GenerateDataset("Epinions", serveScale, datasetSeed)
	if err != nil {
		return err
	}
	path := filepath.Join(r.dir, "scenario.json")
	if err := writeScenarioFile(gp, path); err != nil {
		return err
	}
	inst, err := probeInstance(path)
	if err != nil {
		return err
	}
	cycles := int(r.opt.seconds * float64(time.Second) / float64(serveCycle))
	reqs, err := schedule(r.opt.seed, max(cycles, 1)*servePerCycle, inst)
	if err != nil {
		return err
	}

	var setups []float64
	var d *daemon
	for i := 0; i < serveSetups; i++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		if d, took, err = startDaemon(r.opt.daemon, path, filepath.Join(r.dir, "s3crmd.log")); err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
	}
	defer d.stop()

	client := &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		},
	}
	defer client.CloseIdleConnections()
	if err := warmUp(client, d.base, reqs, inst); err != nil {
		return err
	}
	r.openWindow()
	r.send(client, d.base, reqs, inst)

	var status struct {
		Degraded  int64          `json:"degraded"`
		Shed      int64          `json:"shed"`
		Admission serve.Counters `json:"admission"`
	}
	if err := getJSON(client, d.base+"/statusz", &status); err != nil {
		return fmt.Errorf("reading /statusz: %w", err)
	}
	rss, err := peakRSSMiB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return err
	}
	d.stop()

	var evalMs, solveMs, rates, late, tracedMs, untracedMs []float64
	for i := range reqs {
		q := &reqs[i]
		r.op(q.err)
		late = append(late, ms(q.sent.Sub(q.due)))
		if q.err != nil {
			continue
		}
		took := ms(q.done.Sub(q.due))
		switch {
		case q.solve:
			solveMs = append(solveMs, took)
			rates = append(rates, q.rate)
		default:
			evalMs = append(evalMs, took)
			if r.tr != nil && i%2 == 1 {
				tracedMs = append(tracedMs, took)
			} else if r.tr != nil {
				untracedMs = append(untracedMs, took)
			}
		}
	}
	r.endToEnd("setup_s", median(setups), len(setups))
	r.endToEnd("op_p50_ms", median(evalMs), len(evalMs))
	r.lines = append(r.lines, "# op_p50_ms is evaluate_p50_ms here, timed from each request's due time")
	r.showTail("evaluate_p95_ms", "ms", evalMs, 0.95)
	r.show("solve_p50_ms", "ms", median(solveMs), len(solveMs))
	r.endToEnd("redemption", mean(rates), len(rates))
	r.endToEnd("peak_rss_mib", rss, 1)
	r.lines = append(r.lines, fmt.Sprintf("# open loop at %.4g requests/s in %v cycles, %d connections, %d-seed cycle",
		servePerCycle/serveCycle.Seconds(), serveCycle, runtime.NumCPU(), serveSeeds))

	r.layer("serve.admitted", float64(status.Admission.Admitted), len(reqs))
	r.layer("serve.shed", float64(status.Shed), len(reqs))
	r.layer("serve.degraded", float64(status.Degraded), len(reqs))
	r.show("client_late_p50_ms", "ms", median(late), len(late))
	r.layer("client.late_p99_ms", quantile(late, 0.99), len(late))
	if r.tr == nil {
		return nil
	}
	r.overhead(tracedMs, untracedMs)
	inproc, err := inProcessEvaluates(path, reqs)
	if err != nil {
		return err
	}
	r.layer("serve.overhead_ms", median(evalMs)-median(inproc), len(inproc))
	var ps probeStats
	probed := 0
	for i := range reqs {
		if q := &reqs[i]; !q.solve && probed < serveProbes {
			res := &s3crm.Result{Seeds: q.dep.Seeds, Coupons: q.dep.Coupons}
			if err := ps.probe(r, i, inst, res, serveSamples, q.seed); err != nil {
				return err
			}
			probed++
		}
	}
	ps.report(r)
	return nil
}

// schedule builds n requests from the workload seed: their kinds, pinned
// seeds and, for evaluates, a deployment of one to three seed users, each
// holding one to three coupons where its friends allow, drawn until they fit
// the budget.
func schedule(seed uint64, n int, inst *diffusion.Instance) ([]request, error) {
	cycle := make([]uint64, serveSeeds)
	for j := range cycle {
		cycle[j] = opSeed(seed, 1_000_000+j)
	}
	users := inst.G.NumNodes()
	reqs := make([]request, n)
	for i := range reqs {
		q := &reqs[i]
		q.seed = cycle[i%serveSeeds]
		q.solve = i%servePerCycle == 0
		var body any
		if q.solve {
			body = map[string]any{"seed": q.seed}
		} else {
			src := rng.New(opSeed(seed, i))
			d := diffusion.NewDeployment(users)
			dep := s3crm.Deployment{Coupons: map[int]int{}}
			want := 1 + src.Intn(3)
			for tries := 0; len(dep.Seeds) < want && tries < 100; tries++ {
				v := int32(src.Intn(users))
				if d.IsSeed(v) {
					continue
				}
				d.AddSeed(v)
				k := min(1+src.Intn(3), inst.G.OutDegree(v))
				d.SetK(v, k)
				if inst.TotalCost(d) > inst.Budget {
					d.RemoveSeed(v)
					d.SetK(v, 0)
					continue
				}
				dep.Seeds = append(dep.Seeds, int(v))
				if k > 0 {
					dep.Coupons[int(v)] = k
				}
			}
			if len(dep.Seeds) == 0 {
				return nil, fmt.Errorf("request %d: no deployment fits the budget", i)
			}
			q.dep = dep
			body = map[string]any{
				"seed":        q.seed,
				"deployments": []map[string]any{{"seeds": dep.Seeds, "coupons": dep.Coupons}},
			}
		}
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		q.body = b
	}
	return reqs, nil
}

// warmUp sends, untimed, one /solve and one /evaluate for each seed of the
// cycle, so every engine pool the schedule uses is built before the window
// opens. Each response is checked like a timed one.
func warmUp(client *http.Client, base string, reqs []request, inst *diffusion.Instance) error {
	var solved, evaluated [serveSeeds]bool
	for i := range reqs {
		q := reqs[i] // a copy: the timed request keeps its own fields
		j := i % serveSeeds
		if (q.solve && solved[j]) || (!q.solve && evaluated[j]) {
			continue
		}
		if q.solve {
			solved[j] = true
		} else {
			evaluated[j] = true
		}
		post(client, base, &q, inst)
		if q.err != nil {
			return fmt.Errorf("warm-up request: %w", q.err)
		}
	}
	return nil
}

// send runs the open-loop schedule: request i is due serveOffsets[i%5]
// into cycle i/5 after the window opens and goes to the first free
// connection. A free sender claims the next request and sleeps until it is
// due, so a request waits only when every connection is busy, and no
// hand-off between goroutines adds to its lateness.
func (r *run) send(client *http.Client, base string, reqs []request, inst *diffusion.Instance) {
	start := time.Now()
	for i := range reqs {
		reqs[i].due = start.Add(time.Duration(i/servePerCycle)*serveCycle + serveOffsets[i%servePerCycle])
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				sleepUntil(reqs[i].due)
				r.call(client, base, &reqs[i], i, inst)
			}
		}()
	}
	wg.Wait()
}

// sleepUntil returns at t. Go timers can fire a millisecond or more late,
// which would add the generator's own jitter to every latency, so the last
// two milliseconds are spent spinning.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// call sends one request and checks its response. Traced runs record a span
// tree for every odd request.
func (r *run) call(client *http.Client, base string, q *request, i int, inst *diffusion.Instance) {
	headers := post(client, base, q, inst)
	if r.tr != nil && i%2 == 1 {
		root := r.tr.add("op", 0, i, q.sent, q.done)
		r.tr.add("client.send", root, i, q.sent, headers)
		r.tr.add("client.read", root, i, headers, q.done)
	}
}

// post sends one request, reads and checks its response, and records on q
// when it was sent, when its response was read in full, and what came of
// it. It returns when the response headers arrived.
func post(client *http.Client, base string, q *request, inst *diffusion.Instance) time.Time {
	route := "/evaluate"
	if q.solve {
		route = "/solve"
	}
	q.sent = time.Now()
	resp, err := client.Post(base+route, "application/json", bytes.NewReader(q.body))
	headers := time.Now()
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", route, resp.StatusCode, bytes.TrimSpace(body))
		}
	}
	q.done = time.Now() // the check below is the client's work, not latency
	if err == nil {
		q.rate, err = checkResponse(q, body, inst)
	}
	q.err = err
	return headers
}

// checkResponse parses a response body and checks it: an evaluate returns
// exactly one consistent result, a solve one result within budget over
// valid users. It returns a solve's redemption rate.
func checkResponse(q *request, body []byte, inst *diffusion.Instance) (float64, error) {
	if q.solve {
		var out struct{ Result *s3crm.Result }
		if err := json.Unmarshal(body, &out); err != nil {
			return 0, fmt.Errorf("/solve response: %w", err)
		}
		if err := checkResult(out.Result, inst.G.NumNodes(), inst.Budget); err != nil {
			return 0, fmt.Errorf("/solve result: %w", err)
		}
		return out.Result.RedemptionRate, nil
	}
	var out struct{ Results []*s3crm.Result }
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, fmt.Errorf("/evaluate response: %w", err)
	}
	if len(out.Results) != 1 {
		return 0, fmt.Errorf("/evaluate returned %d results, want 1", len(out.Results))
	}
	if err := checkResult(out.Results[0], inst.G.NumNodes(), inst.Budget); err != nil {
		return 0, fmt.Errorf("/evaluate result: %w", err)
	}
	if got, want := len(out.Results[0].Seeds), len(q.dep.Seeds); got != want {
		return 0, fmt.Errorf("/evaluate result has %d seeds, want %d", got, want)
	}
	return 0, nil
}

// inProcessEvaluates replays the schedule's evaluates through
// Campaign.EvaluateBatch on a campaign configured like the daemon's
// defaults, returning each call's time in ms.
func inProcessEvaluates(path string, reqs []request) ([]float64, error) {
	p, err := loadScenarioFile(path)
	if err != nil {
		return nil, err
	}
	c, err := p.NewCampaign(s3crm.WithSamples(serveSamples), s3crm.WithSeed(1), s3crm.WithMinSamples(50))
	if err != nil {
		return nil, err
	}
	var out []float64
	for _, q := range reqs {
		if q.solve {
			continue
		}
		t := time.Now()
		if _, err := c.EvaluateBatch(context.Background(), []s3crm.Deployment{q.dep}, s3crm.WithSeed(q.seed)); err != nil {
			return nil, fmt.Errorf("in-process evaluate: %w", err)
		}
		out = append(out, ms(time.Since(t)))
	}
	return out, nil
}

// daemon is a running s3crmd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
	log    *os.File
	once   sync.Once
}

// startDaemon execs s3crmd on the scenario and waits for its first healthy
// /healthz, returning the time from exec to healthy.
func startDaemon(bin, scenario, logPath string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{
		cmd:    exec.Command(bin, "-scenario", scenario, "-addr", addr),
		base:   "http://" + addr,
		exited: make(chan error, 1),
		log:    logf,
	}
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// Should the benchmark die without stopping it, the kernel kills the
	// daemon rather than leave it serving.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting s3crmd: %w", err)
	}
	go func() { d.exited <- d.cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for time.Since(t0) < time.Minute {
		select {
		case err := <-d.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("s3crmd exited before it was healthy: %v (log: %s)", err, logPath)
		default:
		}
		if resp, err := probe.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, 0, errors.New("s3crmd not healthy within a minute")
}

// stop kills the daemon and waits for it to exit. It is safe to call twice.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Kill() // fails only if it has exited already
		<-d.exited
		d.log.Close()
	})
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
