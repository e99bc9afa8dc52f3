package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minPasses is the fewest measured passes a run makes, however long
// they take; more passes run while the --seconds budget lasts.
const minPasses = 3

// setupRepeats is how often a run repeats its set-up; setup_s is the
// median.
const setupRepeats = 5

// pass is one measured unit of a workload's work.
type pass struct {
	wall     time.Duration
	cpu      time.Duration
	ops      int64   // application accesses completed
	p50, p99 float64 // nearest-rank request latency percentiles in µs
	nlat     int     // request latency samples
	rssMB    float64 // peak resident set of the working process during the pass
}

// withLatencies sets the pass's latency percentiles from its request
// latencies in µs (which it sorts in place).
func (p pass) withLatencies(lats []float64) pass {
	sort.Float64s(lats)
	p.p50, p.p99, p.nlat = nearestRank(lats, 0.50), nearestRank(lats, 0.99), len(lats)
	return p
}

// passes accumulates a run's measured passes and turns them into the
// end-to-end metrics.
type passes []pass

// record adds the metrics the passes measured to o: wall_s and cpu_s are
// per-pass medians, ops_per_s the median per-pass rate, and the latency
// percentiles the median over passes of each pass's nearest-rank
// percentile.
func (ps passes) record(o *outcome) {
	var walls, cpus, rates, p50s, p99s, rss []float64
	var nlat int
	for _, p := range ps {
		fmt.Printf("pass: wall %.4f s, cpu %.4f s, %d accesses, latency p50 %.3f µs p99 %.3f µs over %d requests, peak RSS %.1f MiB\n",
			p.wall.Seconds(), p.cpu.Seconds(), p.ops, p.p50, p.p99, p.nlat, p.rssMB)
		rss = append(rss, p.rssMB)
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		rates = append(rates, float64(p.ops)/p.wall.Seconds())
		p50s = append(p50s, p.p50)
		p99s = append(p99s, p.p99)
		nlat += p.nlat
	}
	o.set("wall_s", median(walls))
	o.set("cpu_s", median(cpus))
	o.set("ops_per_s", median(rates))
	o.set("lat_p50_us", median(p50s))
	o.set("lat_p99_us", median(p99s))
	o.set("peak_rss_mb", median(rss))
	o.latSamples = nlat
	o.passes = len(ps)
}

// measure runs one pass at a time until at least minPasses have run and
// the budget is spent. Every pass starts from a collected heap, so none
// pays for the garbage of the one before, and from a reset peak resident
// set of the working process pid ("self" or a child's), so each pass
// reports its own peak.
func measure(budget time.Duration, pid string, one func() (pass, error)) (passes, error) {
	var ps passes
	start := time.Now()
	for len(ps) < minPasses || time.Since(start) < budget {
		runtime.GC()
		resetPeakRSS(pid)
		p, err := one()
		if err != nil {
			return nil, err
		}
		if p.rssMB, err = peakRSSMB(pid); err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// timeSetup runs set-up setupRepeats times and records the median as
// setup_s; the last set-up's product is kept by the callback. Before
// each repetition, untimed, reset (when non-nil) releases the previous
// product and the heap is collected, so the one before neither adds to
// a repetition's time nor stacks up in memory.
func timeSetup(o *outcome, reset func(), setup func() error) error {
	var ts []float64
	for i := 0; i < setupRepeats; i++ {
		if reset != nil {
			reset()
		}
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	o.set("setup_s", median(ts))
	return nil
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets process pid's peak resident set to its current
// one. Where the kernel refuses, the peak stays the process's lifetime
// peak, which is still an upper bound of the pass's.
func resetPeakRSS(pid string) {
	_ = os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns process pid's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%s/status: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status: no VmHWM", pid)
}

// runtimeCounters is a snapshot of the Go runtime's allocation and GC
// counters.
type runtimeCounters struct {
	mallocs uint64
	numGC   uint32
	pauseNs uint64
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{mallocs: ms.Mallocs, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// recordRuntime sets the allocation and GC per-layer metrics from the
// counter difference over one untraced pass of ops accesses.
func recordRuntime(o *outcome, before, after runtimeCounters, wall time.Duration, ops int64) {
	o.set("allocs_per_op", float64(after.mallocs-before.mallocs)/float64(max(ops, 1)))
	o.set("gc.cycles_per_s", float64(after.numGC-before.numGC)/wall.Seconds())
	o.set("gc.pause_ms_total", float64(after.pauseNs-before.pauseNs)/1e6)
}
