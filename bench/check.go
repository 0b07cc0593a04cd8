package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"s3crm"
)

// checkResult verifies one solve or refresh result against the instance it
// came from: the deployment stays within budget, names only users 0..users-1
// with positive coupon counts, and its redemption rate is Benefit/TotalCost.
func checkResult(r *s3crm.Result, users int, budget float64) error {
	if r == nil {
		return errors.New("nil result")
	}
	if r.TotalCost > budget*(1+1e-9) {
		return fmt.Errorf("total cost %.6g exceeds budget %.6g", r.TotalCost, budget)
	}
	for _, s := range r.Seeds {
		if s < 0 || s >= users {
			return fmt.Errorf("seed %d outside [0,%d)", s, users)
		}
	}
	for u, k := range r.Coupons {
		if u < 0 || u >= users {
			return fmt.Errorf("coupon holder %d outside [0,%d)", u, users)
		}
		if k < 1 {
			return fmt.Errorf("coupon holder %d has %d coupons", u, k)
		}
	}
	return checkRate(r)
}

// checkRate verifies that a result's redemption rate is finite and equals
// Benefit/TotalCost, or 0 for a deployment that costs nothing.
func checkRate(r *s3crm.Result) error {
	if math.IsNaN(r.RedemptionRate) || math.IsInf(r.RedemptionRate, 0) || r.RedemptionRate < 0 {
		return fmt.Errorf("redemption rate %v", r.RedemptionRate)
	}
	want := 0.0
	if r.TotalCost > 0 {
		want = r.Benefit / r.TotalCost
	}
	if math.Abs(r.RedemptionRate-want) > 1e-9*math.Max(1, want) {
		return fmt.Errorf("redemption rate %.12g, want Benefit/TotalCost = %.12g", r.RedemptionRate, want)
	}
	return nil
}

// buildID fingerprints the running executable, which has the program under
// test compiled in.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("locating the benchmark binary: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", fmt.Errorf("reading the benchmark binary: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("reading the benchmark binary: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// digest fingerprints a result's deployment: its seeds and coupon counts.
func digest(r *s3crm.Result) string {
	h := fnv.New64a()
	seeds := append([]int(nil), r.Seeds...)
	sort.Ints(seeds)
	fmt.Fprint(h, seeds, ";")
	users := make([]int, 0, len(r.Coupons))
	for u := range r.Coupons {
		users = append(users, u)
	}
	sort.Ints(users)
	for _, u := range users {
		fmt.Fprintf(h, "%d:%d,", u, r.Coupons[u])
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// digestLog compares a run's per-op digests with those an earlier run of the
// same build, workload and seed left behind: op i must yield the same
// deployment every time. The log keeps the longest list seen; a log written
// by another build is started afresh.
type digestLog struct {
	path  string
	build string
	old   []string
	cur   []string
}

func openDigestLog(dir, build, workload string, seed uint64) (*digestLog, error) {
	l := &digestLog{path: filepath.Join(dir, fmt.Sprintf("%s-seed%d.txt", workload, seed)), build: build}
	f, err := os.Open(l.path)
	if errors.Is(err, os.ErrNotExist) {
		return l, nil
	}
	if err != nil {
		return nil, fmt.Errorf("opening digest log: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		l.old = append(l.old, strings.TrimSpace(sc.Text()))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading digest log: %w", err)
	}
	if len(l.old) == 0 || l.old[0] != "build "+build {
		l.old = nil
		return l, nil
	}
	l.old = l.old[1:]
	return l, nil
}

// note records op i's digest (ops are noted in order, from 0) and reports a
// mismatch with the earlier run.
func (l *digestLog) note(i int, d string) error {
	if i != len(l.cur) {
		return fmt.Errorf("digest for op %d noted out of order", i)
	}
	l.cur = append(l.cur, d)
	if i < len(l.old) && l.old[i] != d {
		return fmt.Errorf("op %d deployment digest %s differs from an earlier run's %s", i, d, l.old[i])
	}
	return nil
}

// save writes the longer of the two digest lists back.
func (l *digestLog) save() error {
	keep := l.cur
	if len(l.old) > len(keep) {
		keep = l.old
	}
	tmp := l.path + ".tmp"
	body := "build " + l.build + "\n" + strings.Join(keep, "\n") + "\n"
	if err := os.WriteFile(tmp, []byte(body), 0o644); err != nil {
		return fmt.Errorf("writing digest log: %w", err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return fmt.Errorf("writing digest log: %w", err)
	}
	return nil
}
