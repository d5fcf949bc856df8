package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The two tables are the
// benchmark's contract and must match BENCHMARK.json (TestMetricTables).
type metricDef struct {
	name string
	unit string
}

// endToEnd is what a user of the system sees, reported with --trace 0.
var endToEnd = []metricDef{
	{"query_p50_s", "s"},
	{"query_p90_s", "s"},
	{"queries_per_s", "1/s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"materialized_mb", "MB"},
	{"shuffle_mb", "MB"},
	{"modeled_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the traced split, reported with --trace 1. Each value is per
// query (per request on service-mix) unless its name says otherwise.
var perLayer = []metricDef{
	{"keys.compares", "count"},
	{"mapreduce.map_s", "s"},
	{"mapreduce.spill_s", "s"},
	{"mapreduce.sort_s", "s"},
	{"mapreduce.merge_s", "s"},
	{"mapreduce.fetch_s", "s"},
	{"mapreduce.reduce_s", "s"},
	{"mapreduce.failed_attempts", "count"},
	{"mapreduce.task_retries", "count"},
	{"scihadoop.reduce_calls", "count"},
	{"scihadoop.reduce_s", "s"},
	{"codec.encode_s", "s"},
	{"codec.decode_s", "s"},
	{"codec.raw_mb", "MB"},
	{"codec.coded_mb", "MB"},
	{"shufflenet.fetches", "count"},
	{"shufflenet.fetch_retries", "count"},
	{"shufflenet.fetch_mb", "MB"},
	{"clusterd.publish_mb", "MB"},
	{"clusterd.journal_mb", "MB"},
	{"clusterd.remote_attempts", "count"},
	{"clusterd.remote_attempt_s", "s"},
	{"queryd.hit_ratio", "ratio"},
	{"queryd.hit_s", "s"},
	{"queryd.miss_s", "s"},
	{"store.get_s", "s"},
	{"store.put_s", "s"},
	{"store.get_mb", "MB"},
	{"store.put_mb", "MB"},
	{"process.alloc_mb", "MB"},
	{"process.gc_cycles", "count"},
	{"trace.query_p50_s", "s"},
	{"trace.attributed_s", "s"},
	{"trace.reconcile_gap_s", "s"},
}

const mb = 1e6

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / mb // Linux reports kilobytes
}

// sample is a point-in-time reading of the process counters one query's
// cost is measured between.
type sample struct {
	at     time.Time
	cpu    float64
	alloc  uint64
	gcs    uint32
	traced bool
}

// takeSample reads the clock and CPU time, and with memory set also the
// Go runtime's allocation and GC counters. ReadMemStats stops the world,
// so untraced runs, which report no memory figures, skip it.
func takeSample(memory bool) sample {
	s := sample{traced: memory}
	if memory {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.alloc, s.gcs = ms.TotalAlloc, ms.NumGC
	}
	s.cpu = cpuSeconds()
	s.at = time.Now()
	return s
}

// begin starts measuring one query. It first collects the garbage the
// previous query left, outside the measurement, so every query starts from
// the same heap state, as the first query of a fresh process does.
func begin(memory bool) sample {
	runtime.GC()
	return takeSample(memory)
}

const (
	// setupSamples is how many set-ups a run times before its queries;
	// setup_s is their median.
	setupSamples = 41
	// setupGap is the idle pause before each timed set-up.
	setupGap = 20 * time.Millisecond
)

// timeSetups times setupSamples set-ups and returns their median, setup_s.
// once performs one set-up and returns what releases it, which runs
// outside the timing. Each set-up starts after an idle pause and from a
// collected heap, as the first set-up of a fresh process does: back to
// back, a set-up of a millisecond or two runs in caches its predecessor
// warmed, and the run's median moved by a third from one run to the next.
func timeSetups(once func() (release func() error, err error)) (float64, error) {
	secs := make([]float64, 0, setupSamples)
	for i := 0; i < setupSamples; i++ {
		time.Sleep(setupGap)
		runtime.GC()
		start := time.Now()
		release, err := once()
		secs = append(secs, time.Since(start).Seconds())
		if err != nil {
			return 0, err
		}
		if release != nil {
			if err := release(); err != nil {
				return 0, err
			}
		}
	}
	return median(secs), nil
}

// cost is what one query consumed between two samples.
type cost struct {
	wall    float64
	cpu     float64
	allocMB float64
	gcs     float64
}

func since(s sample) cost {
	now := takeSample(s.traced)
	return cost{
		wall:    now.at.Sub(s.at).Seconds(),
		cpu:     now.cpu - s.cpu,
		allocMB: float64(now.alloc-s.alloc) / mb,
		gcs:     float64(now.gcs - s.gcs),
	}
}
