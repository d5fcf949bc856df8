package main

import (
	"fmt"
	"time"

	"scikey/internal/cluster"
	"scikey/internal/core"
	"scikey/internal/hdfs"
	"scikey/internal/mapreduce"
	"scikey/internal/obs"
	"scikey/internal/queryd"
	"scikey/internal/scihadoop"
)

const (
	// defaultSide is the one-shot and cluster workloads' grid side.
	defaultSide = 256
	// minQueries is the fewest timed queries a one-shot or cluster run
	// makes, even when the measured time has passed.
	minQueries = 3
)

// runMedianRecords is the record-heavy workload: raw simple keys, no
// codec, shuffled over loopback TCP between two shuffle nodes.
func runMedianRecords(o options) (*outcome, error) {
	return runOneShot(o, "baseline", &mapreduce.ShuffleConfig{Mode: mapreduce.ShuffleTCP, Nodes: 2})
}

// runMedianTransform is the codec-heavy workload: the same records through
// the predictive transform and zlib, shuffled in memory.
func runMedianTransform(o options) (*outcome, error) {
	return runOneShot(o, "transform", nil)
}

// runJob builds and runs one query job, instrumenting it when p is
// non-nil, and hashes its output.
func runJob(fs *hdfs.FileSystem, qcfg scihadoop.QueryConfig, strat core.Strategy, p *probe) (*query, error) {
	plan, err := core.BuildJob(fs, qcfg, strat)
	if err != nil {
		return nil, err
	}
	if p != nil {
		p.instrument(plan.Job)
	}
	res, err := mapreduce.Run(plan.Job)
	if err != nil {
		return nil, err
	}
	sha, err := queryd.OutputSHA(fs, res)
	if err != nil {
		return nil, err
	}
	return &query{plan: plan, res: res, sha: sha}, nil
}

// timings collects the per-query end-to-end figures of a run.
type timings struct {
	wall, cpu, materialized, shuffle, modeled []float64
	setup                                     float64
	loop                                      time.Duration
}

func (t *timings) add(c cost, res *mapreduce.Result, modeled float64) {
	t.wall = append(t.wall, c.wall)
	t.cpu = append(t.cpu, c.cpu)
	t.materialized = append(t.materialized, float64(res.Counters.MapOutputMaterializedBytes.Value())/mb)
	t.shuffle = append(t.shuffle, float64(res.Counters.ReduceShuffleBytes.Value())/mb)
	t.modeled = append(t.modeled, modeled)
}

// endToEndMetrics reports a run's timings; peak RSS is read by the caller
// before any verification work can raise it.
func (t *timings) endToEndMetrics(peakRSS float64) map[string]float64 {
	return map[string]float64{
		"query_p50_s":     median(t.wall),
		"query_p90_s":     quantile(t.wall, 0.9),
		"queries_per_s":   float64(len(t.wall)) / t.loop.Seconds(),
		"cpu_s":           median(t.cpu),
		"setup_s":         t.setup,
		"materialized_mb": median(t.materialized),
		"shuffle_mb":      median(t.shuffle),
		"modeled_s":       median(t.modeled),
		"peak_rss_mb":     peakRSS,
	}
}

// done reports whether a timed loop that started at start has run long
// enough.
func (o options) done(start time.Time, n int) bool {
	return n >= minQueries && time.Since(start).Seconds() >= o.seconds
}

// runOneShot runs the one-shot sliding-median workloads: a warm-up query,
// then back-to-back timed queries on the same dataset, each checked
// against the warm-up's output sha256.
func runOneShot(o options, strategy string, shuffle *mapreduce.ShuffleConfig) (*outcome, error) {
	side := defaultSide
	if o.side > 0 {
		side = o.side
	}
	d := seededSpec(o.seed, side, strategy)
	strat, err := d.strategy()
	if err != nil {
		return nil, err
	}
	var t timings
	var fs *hdfs.FileSystem
	var qcfg scihadoop.QueryConfig
	t.setup, err = timeSetups(func() (_ func() error, err error) {
		fs, qcfg, err = d.setup()
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	qcfg.Parallelism = 2
	qcfg.Shuffle = shuffle

	var p *probe
	if o.trace {
		p = &probe{}
	}
	out := &outcome{}
	var splits []layerSplit
	// exec runs one query, recording its traced split when tracing.
	exec := func(path string) (*query, cost, error) {
		cfg := qcfg
		cfg.OutputPath = path
		var before probeSnap
		if o.trace {
			cfg.Obs = obs.New()
			before = p.snap()
		}
		s := begin(o.trace)
		q, err := runJob(fs, cfg, strat, p)
		c := since(s)
		if err != nil {
			return nil, c, err
		}
		if o.trace {
			if n := cfg.Obs.T().Dropped(); n > 0 {
				return nil, c, fmt.Errorf("tracer dropped %d spans", n)
			}
			splits = append(splits, layerSplit{
				p:      p.snap().sub(before),
				phases: digestSpans(cfg.Obs.T().Events()),
				c:      q.res.Counters,
				cost:   c,
				n:      1,
			})
		}
		return q, c, nil
	}

	out.attempted++
	warm, _, err := exec("/out/warmup")
	if err != nil {
		return nil, fmt.Errorf("warm-up query: %w", err)
	}
	splits = nil // the warm-up is not measured

	loopStart := time.Now()
	for n := 0; !o.done(loopStart, n); n++ {
		out.attempted++
		q, c, err := exec("/out/query")
		if err != nil {
			out.fail("query %d: %v", n, err)
			continue
		}
		if q.sha != warm.sha {
			out.fail("query %d: output sha256 %s differs from the warm-up's %s", n, q.sha, warm.sha)
		}
		t.add(c, q.res, q.res.Estimate(cluster.Paper()).Total())
		if err := q.clearOutput(fs); err != nil {
			return nil, err
		}
	}
	t.loop = time.Since(loopStart)
	peak := peakRSSMB()
	out.walls = t.wall

	if msg, err := checkCells(warm, d, qcfg.Radius, qcfg.Op); err != nil {
		return nil, fmt.Errorf("decoding the warm-up output: %w", err)
	} else if msg != "" {
		out.fail("warm-up query: %s", msg)
	}
	if o.trace {
		out.metrics = layerMetrics(splits, median(t.wall))
		out.reconciliation = reconcile(splits)
	} else {
		out.metrics = t.endToEndMetrics(peak)
	}
	return out, nil
}
