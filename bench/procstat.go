package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peakRSSMiB reads VmHWM, the peak resident set size, of a process from
// /proc/<pid>/status ("self" for this process).
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%s/status", pid)
}

// procSample is a point-in-time reading of this process's runtime and CPU
// counters; the difference of two readings is one op's cost.
type procSample struct {
	wall     time.Time
	cpu      time.Duration
	alloc    uint64
	gcCycles uint32
	gcPause  uint64
}

func readProc() procSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSample{
		wall: time.Now(), cpu: cpu,
		alloc: m.TotalAlloc, gcCycles: m.NumGC, gcPause: m.PauseTotalNs,
	}
}

// procDelta is what one op cost the process.
type procDelta struct {
	allocMiB, gcCycles, gcPauseMs, cpuPerWall float64
}

func (a procSample) to(b procSample) procDelta {
	d := procDelta{
		allocMiB:  float64(b.alloc-a.alloc) / (1 << 20),
		gcCycles:  float64(b.gcCycles - a.gcCycles),
		gcPauseMs: float64(b.gcPause-a.gcPause) / 1e6,
	}
	if w := b.wall.Sub(a.wall); w > 0 {
		d.cpuPerWall = float64(b.cpu-a.cpu) / float64(w)
	}
	return d
}

// procDeltas collects per-op costs and reports their medians.
type procDeltas []procDelta

func (ds procDeltas) report(r *run) {
	pick := func(f func(procDelta) float64) float64 {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = f(d)
		}
		return median(xs)
	}
	if len(ds) == 0 {
		return
	}
	r.layer("runtime.alloc_mib", pick(func(d procDelta) float64 { return d.allocMiB }), len(ds))
	r.layer("runtime.gc_cycles", pick(func(d procDelta) float64 { return d.gcCycles }), len(ds))
	r.layer("runtime.gc_pause_ms", pick(func(d procDelta) float64 { return d.gcPauseMs }), len(ds))
	r.layer("proc.cpu_per_wall", pick(func(d procDelta) float64 { return d.cpuPerWall }), len(ds))
}
