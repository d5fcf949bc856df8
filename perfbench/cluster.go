package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"scikey/internal/cluster"
	"scikey/internal/clusterd"
	"scikey/internal/core"
	"scikey/internal/hdfs"
	"scikey/internal/obs"
	"scikey/internal/scihadoop"
)

// clusterWorkers is the worker count of each query's cluster.
const clusterWorkers = 2

// miniCluster is one query's in-process cluster: a coordinator journaling
// to local disk, worker goroutines that each rebuild the job from the
// coordinator's spec on their own file system, and a driver client.
type miniCluster struct {
	coord   *clusterd.Coordinator
	workers []*clusterd.Worker
	client  *clusterd.Client
	journal string
	wg      sync.WaitGroup
	errs    chan error
}

// startCluster brings a cluster up and returns once every worker has built
// its job, so the query that follows measures execution, not start-up.
func startCluster(d dataSpec, journal string, p *probe) (*miniCluster, error) {
	spec, err := json.Marshal(d)
	if err != nil {
		return nil, err
	}
	coord, err := clusterd.Start(clusterd.Config{
		Addr:    "127.0.0.1:0",
		Spec:    spec,
		Journal: journal,
		// Journaled grants fsync inside the coordinator; give renewals the
		// same slack the scijob cluster mode gives them.
		LeaseTTL: 2 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	mc := &miniCluster{coord: coord, journal: journal, errs: make(chan error, clusterWorkers)}
	built := make(chan struct{}, clusterWorkers)
	var buildErr atomic.Value
	for i := 0; i < clusterWorkers; i++ {
		w := clusterd.NewWorker(clusterd.WorkerConfig{
			Addr: coord.Addr(),
			Build: func(raw []byte) (clusterd.Runner, error) {
				r, err := buildWorker(raw, p)
				if err != nil {
					buildErr.Store(err)
				}
				built <- struct{}{}
				return r, err
			},
		})
		mc.workers = append(mc.workers, w)
		mc.wg.Add(1)
		go func() {
			defer mc.wg.Done()
			if err := w.Run(); err != nil {
				mc.errs <- err
			}
		}()
	}
	mc.client, err = clusterd.Dial(clusterd.ClientConfig{Addr: coord.Addr()})
	if err != nil {
		mc.stop()
		return nil, err
	}
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for i := 0; i < clusterWorkers; i++ {
		select {
		case <-built:
		case <-timeout.C:
			mc.stop()
			return nil, errors.New("workers did not register within 10s")
		}
	}
	if err, ok := buildErr.Load().(error); ok {
		mc.stop()
		return nil, fmt.Errorf("worker build: %w", err)
	}
	return mc, nil
}

// buildWorker is a worker's job rebuild: decode the spec, write the same
// seeded dataset on the worker's own file system, build the job.
func buildWorker(raw []byte, p *probe) (clusterd.Runner, error) {
	var d dataSpec
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("decoding job spec: %w", err)
	}
	strat, err := d.strategy()
	if err != nil {
		return nil, err
	}
	fs, qcfg, err := d.setup()
	if err != nil {
		return nil, err
	}
	plan, err := core.BuildJob(fs, qcfg, strat)
	if err != nil {
		return nil, err
	}
	if p != nil {
		p.instrument(plan.Job)
	}
	return &clusterd.JobRunner{Job: plan.Job}, nil
}

// stop tears the cluster down and waits for every worker goroutine.
func (mc *miniCluster) stop() error {
	if mc.client != nil {
		mc.client.Close()
	}
	for _, w := range mc.workers {
		w.Drain()
	}
	drained := make(chan struct{})
	go func() {
		mc.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		for _, w := range mc.workers {
			w.Stop()
		}
		<-drained
	}
	err := mc.coord.Close()
	close(mc.errs)
	for werr := range mc.errs {
		err = errors.Join(err, werr)
	}
	if rerr := os.Remove(mc.journal); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
		err = errors.Join(err, rerr)
	}
	return err
}

// runClusterRecords runs the baseline median through a fresh in-process
// cluster per query: coordinator with an on-disk journal, two workers, one
// driver. Set-up (dataset plus cluster start) is timed apart from the query.
func runClusterRecords(o options) (*outcome, error) {
	side := defaultSide
	if o.side > 0 {
		side = o.side
	}
	d := seededSpec(o.seed, side, "baseline")
	strat, err := d.strategy()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "perfbench-cluster-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var p *probe
	if o.trace {
		p = &probe{}
	}
	var t timings
	var splits []layerSplit
	out := &outcome{}
	// bringUp is one set-up: the driver's dataset and a started cluster.
	bringUp := func(name string) (fs *hdfs.FileSystem, qcfg scihadoop.QueryConfig, mc *miniCluster, err error) {
		if fs, qcfg, err = d.setup(); err != nil {
			return nil, qcfg, nil, fmt.Errorf("setting up the dataset: %w", err)
		}
		if mc, err = startCluster(d, filepath.Join(dir, name+".journal"), p); err != nil {
			return nil, qcfg, nil, fmt.Errorf("starting the cluster: %w", err)
		}
		return fs, qcfg, mc, nil
	}
	n := 0
	t.setup, err = timeSetups(func() (func() error, error) {
		n++
		_, _, mc, err := bringUp(fmt.Sprintf("setup-%d", n))
		if err != nil {
			return nil, err
		}
		return func() error {
			if err := mc.stop(); err != nil {
				return fmt.Errorf("stopping cluster: %w", err)
			}
			return nil
		}, nil
	})
	if err != nil {
		return nil, err
	}

	// exec runs one query on its own cluster.
	exec := func(n int) (*query, cost, error) {
		fs, qcfg, mc, err := bringUp(fmt.Sprintf("query-%d", n))
		if err != nil {
			return nil, cost{}, err
		}

		qcfg.Remote = mc.client
		qcfg.Parallelism = clusterWorkers
		qcfg.OutputPath = "/out/query"
		var before probeSnap
		if o.trace {
			qcfg.Obs = obs.New()
			before = p.snap()
		}
		s := begin(o.trace)
		q, qerr := runJob(fs, qcfg, strat, p)
		c := since(s)
		var journalBytes int64
		if st, err := os.Stat(mc.journal); err == nil {
			journalBytes = st.Size()
		}
		if err := mc.stop(); err != nil && qerr == nil {
			qerr = fmt.Errorf("stopping cluster: %w", err)
		}
		if qerr != nil {
			return nil, c, qerr
		}
		if o.trace {
			splits = append(splits, layerSplit{
				p:            p.snap().sub(before),
				phases:       digestSpans(qcfg.Obs.T().Events()),
				c:            q.res.Counters,
				cost:         c,
				journalBytes: journalBytes,
				n:            1,
			})
		}
		return q, c, nil
	}

	out.attempted++
	warm, _, err := exec(0)
	if err != nil {
		return nil, fmt.Errorf("warm-up query: %w", err)
	}
	splits = nil

	loopStart := time.Now()
	for n := 1; !o.done(loopStart, n-1); n++ {
		out.attempted++
		q, c, err := exec(n)
		if err != nil {
			out.fail("query %d: %v", n, err)
			continue
		}
		if q.sha != warm.sha {
			out.fail("query %d: output sha256 %s differs from the warm-up's %s", n, q.sha, warm.sha)
		}
		t.add(c, q.res, q.res.Estimate(cluster.Paper()).Total())
	}
	t.loop = time.Since(loopStart)
	peak := peakRSSMB()
	out.walls = t.wall

	if msg, err := checkCells(warm, d, 1, scihadoop.Median); err != nil {
		return nil, fmt.Errorf("decoding the warm-up output: %w", err)
	} else if msg != "" {
		out.fail("warm-up query: %s", msg)
	}
	// The same spec run one-shot in this process must give the same bytes.
	fs, qcfg, err := d.setup()
	if err != nil {
		return nil, err
	}
	qcfg.Parallelism = 2
	one, err := runJob(fs, qcfg, strat, nil)
	if err != nil {
		return nil, fmt.Errorf("one-shot reference run: %w", err)
	}
	if one.sha != warm.sha {
		out.fail("cluster output sha256 %s differs from the one-shot run's %s", warm.sha, one.sha)
	}

	if o.trace {
		out.metrics = layerMetrics(splits, median(t.wall))
		out.reconciliation = reconcile(splits)
	} else {
		out.metrics = t.endToEndMetrics(peak)
	}
	return out, nil
}
