package main

import (
	"compress/zlib"
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"
	"unsafe"

	"scikey/internal/codec"
	"scikey/internal/mapreduce"
	"scikey/internal/obs"
	"scikey/internal/store"
)

// probe accumulates the counts and busy times measured at the layer
// boundaries a traced run wraps. One probe lives for a whole run; a query's
// share is the difference of two snapshots.
type probe struct {
	compares       stripedCount
	encodeNS       atomic.Int64
	decodeNS       atomic.Int64
	rawBytes       atomic.Int64
	codedBytes     atomic.Int64
	reduceCalls    atomic.Int64
	reduceNS       atomic.Int64
	publishBytes   atomic.Int64
	remoteAttempts atomic.Int64
	remoteNS       atomic.Int64
	getNS          atomic.Int64
	putNS          atomic.Int64
	getBytes       atomic.Int64
	putBytes       atomic.Int64
}

// probeSnap is a probe's values at one instant.
type probeSnap struct {
	compares, encodeNS, decodeNS, rawBytes, codedBytes int64
	reduceCalls, reduceNS                              int64
	publishBytes, remoteAttempts, remoteNS             int64
	getNS, putNS, getBytes, putBytes                   int64
}

func (p *probe) snap() probeSnap {
	return probeSnap{
		compares: p.compares.load(), encodeNS: p.encodeNS.Load(), decodeNS: p.decodeNS.Load(),
		rawBytes: p.rawBytes.Load(), codedBytes: p.codedBytes.Load(),
		reduceCalls: p.reduceCalls.Load(), reduceNS: p.reduceNS.Load(),
		publishBytes: p.publishBytes.Load(), remoteAttempts: p.remoteAttempts.Load(), remoteNS: p.remoteNS.Load(),
		getNS: p.getNS.Load(), putNS: p.putNS.Load(), getBytes: p.getBytes.Load(), putBytes: p.putBytes.Load(),
	}
}

func (a probeSnap) sub(b probeSnap) probeSnap {
	return probeSnap{
		compares: a.compares - b.compares, encodeNS: a.encodeNS - b.encodeNS, decodeNS: a.decodeNS - b.decodeNS,
		rawBytes: a.rawBytes - b.rawBytes, codedBytes: a.codedBytes - b.codedBytes,
		reduceCalls: a.reduceCalls - b.reduceCalls, reduceNS: a.reduceNS - b.reduceNS,
		publishBytes: a.publishBytes - b.publishBytes, remoteAttempts: a.remoteAttempts - b.remoteAttempts,
		remoteNS: a.remoteNS - b.remoteNS,
		getNS:    a.getNS - b.getNS, putNS: a.putNS - b.putNS, getBytes: a.getBytes - b.getBytes, putBytes: a.putBytes - b.putBytes,
	}
}

// stripedCount is an exact event count spread over cache-line-padded
// stripes, so that goroutines counting at once (concurrent sorts bumping
// the comparison count) rarely write the same line. The stripe comes from
// the address of a stack variable, which differs between goroutines; any
// choice of stripe keeps the total exact.
type stripedCount struct {
	stripes [32]struct {
		n atomic.Int64
		_ [56]byte
	}
}

func (c *stripedCount) inc() {
	var mark byte
	i := (uintptr(unsafe.Pointer(&mark)) >> 13) % uintptr(len(c.stripes))
	c.stripes[i].n.Add(1)
}

func (c *stripedCount) load() int64 {
	var n int64
	for i := range c.stripes {
		n += c.stripes[i].n.Load()
	}
	return n
}

func secs(ns int64) float64 { return time.Duration(ns).Seconds() }

// instrument wraps a built job's function fields so the probe sees every
// key comparison, codec stream, reduce call, and remote attempt. It
// changes no bytes: the wrappers delegate every call unchanged.
func (p *probe) instrument(job *mapreduce.Job) {
	cmp := job.Compare
	job.Compare = func(a, b []byte) int {
		p.compares.inc()
		return cmp(a, b)
	}
	if job.MapOutputCodec != nil {
		// A nil codec means "no compression"; wrapping the identity codec
		// would switch the engine off its fetch-time verification path.
		job.MapOutputCodec = &timedCodec{inner: job.MapOutputCodec, p: p}
	}
	newReducer := job.NewReducer
	job.NewReducer = func() mapreduce.Reducer {
		r := newReducer()
		tr := timedReducer{inner: r, p: p}
		if f, ok := r.(mapreduce.Finalizer); ok {
			return &timedFinalizer{timedReducer: tr, fin: f}
		}
		return &tr
	}
	if job.Remote != nil {
		job.Remote = &timedRemote{inner: job.Remote, p: p}
	}
}

type timedReducer struct {
	inner mapreduce.Reducer
	p     *probe
}

func (r *timedReducer) Reduce(ctx *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emit) error {
	start := time.Now()
	err := r.inner.Reduce(ctx, key, values, emit)
	r.p.reduceNS.Add(int64(time.Since(start)))
	r.p.reduceCalls.Add(1)
	return err
}

// timedFinalizer keeps a wrapped reducer's Finish hook visible to the
// engine.
type timedFinalizer struct {
	timedReducer
	fin mapreduce.Finalizer
}

func (r *timedFinalizer) Finish(ctx *mapreduce.TaskContext, emit mapreduce.Emit) error {
	start := time.Now()
	err := r.fin.Finish(ctx, emit)
	r.p.reduceNS.Add(int64(time.Since(start)))
	return err
}

// timedCodec times a map-output codec's streams and counts the bytes on
// both sides of the encoder. Its streams stay resettable when the inner
// codec's are, so the engine's stream pools keep recycling them exactly as
// they recycle the unwrapped codec's.
type timedCodec struct {
	inner codec.Codec
	p     *probe
}

func (c *timedCodec) Name() string { return c.inner.Name() }

func (c *timedCodec) NewWriter(w io.Writer) io.WriteCloser {
	start := time.Now()
	cw := &countingWriter{w: w, n: &c.p.codedBytes}
	tw := &timedWriter{inner: c.inner.NewWriter(cw), out: cw, p: c.p}
	c.p.encodeNS.Add(int64(time.Since(start)))
	return tw
}

func (c *timedCodec) NewReader(r io.Reader) (io.ReadCloser, error) {
	start := time.Now()
	rc, err := c.inner.NewReader(r)
	c.p.decodeNS.Add(int64(time.Since(start)))
	if err != nil {
		return nil, err
	}
	return &timedReader{inner: rc, p: c.p}, nil
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n.Add(int64(n))
	return n, err
}

type timedWriter struct {
	inner io.WriteCloser
	out   *countingWriter
	p     *probe
}

func (w *timedWriter) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := w.inner.Write(b)
	w.p.encodeNS.Add(int64(time.Since(start)))
	w.p.rawBytes.Add(int64(n))
	return n, err
}

func (w *timedWriter) Close() error {
	start := time.Now()
	err := w.inner.Close()
	w.p.encodeNS.Add(int64(time.Since(start)))
	return err
}

// Reset rebinds the stream to dst (the engine's writer pool calls it). The
// benchmark wraps only transform+zlib, whose writers are resettable.
func (w *timedWriter) Reset(dst io.Writer) {
	w.out.w = dst
	w.inner.(interface{ Reset(io.Writer) }).Reset(w.out)
}

type timedReader struct {
	inner io.ReadCloser
	p     *probe
}

func (r *timedReader) Read(b []byte) (int, error) {
	start := time.Now()
	n, err := r.inner.Read(b)
	r.p.decodeNS.Add(int64(time.Since(start)))
	return n, err
}

func (r *timedReader) Close() error { return r.inner.Close() }

// Reset rebinds the stream to src (the engine's reader pool calls it).
func (r *timedReader) Reset(src io.Reader) error {
	start := time.Now()
	defer func() { r.p.decodeNS.Add(int64(time.Since(start))) }()
	switch in := r.inner.(type) {
	case interface{ Reset(io.Reader) error }:
		return in.Reset(src)
	case zlib.Resetter:
		return in.Reset(src, nil)
	}
	return errors.New("perfbench: codec reader is not resettable")
}

// timedRemote times each remote attempt and counts the map-output bytes
// published through the control plane.
type timedRemote struct {
	inner mapreduce.Remote
	p     *probe
}

func (r *timedRemote) RunRemote(phase string, task, attempt int, canceled func() bool) (*mapreduce.RemoteResult, error) {
	start := time.Now()
	rr, err := r.inner.RunRemote(phase, task, attempt, canceled)
	r.p.remoteNS.Add(int64(time.Since(start)))
	r.p.remoteAttempts.Add(1)
	return rr, err
}

func (r *timedRemote) PublishRemote(mapTask, attempt int, parts [][]byte) {
	var n int64
	for _, part := range parts {
		n += int64(len(part))
	}
	r.p.publishBytes.Add(n)
	r.inner.PublishRemote(mapTask, attempt, parts)
}

// timedStore times the segment cache's object reads and writes.
type timedStore struct {
	store.Store
	p *probe
}

func (s *timedStore) Get(key string) ([]byte, error) {
	start := time.Now()
	data, err := s.Store.Get(key)
	s.p.getNS.Add(int64(time.Since(start)))
	s.p.getBytes.Add(int64(len(data)))
	return data, err
}

func (s *timedStore) Put(key string, data []byte) error {
	start := time.Now()
	err := s.Store.Put(key, data)
	s.p.putNS.Add(int64(time.Since(start)))
	s.p.putBytes.Add(int64(len(data)))
	return err
}

// phaseTimes sums the engine's own phase spans (obs.CatPhase) by phase.
type phaseTimes struct {
	mapS, spill, spillCodec, merge, fetch, reduce float64
}

// total is the wall time inside top-level phase spans (the codec span
// nests inside spill).
func (t phaseTimes) total() float64 { return t.mapS + t.spill + t.merge + t.fetch + t.reduce }

// digestSpans folds a tracer's phase spans. Map- and reduce-side merges
// share the name "merge" and both count toward merge.
func digestSpans(events []obs.Event) phaseTimes {
	var t phaseTimes
	for _, ev := range events {
		if ev.Cat != obs.CatPhase {
			continue
		}
		d := ev.Dur.Seconds()
		switch ev.Name {
		case "map":
			t.mapS += d
		case "spill":
			t.spill += d
		case "codec":
			t.spillCodec += d
		case "merge":
			t.merge += d
		case "fetch":
			t.fetch += d
		case "reduce":
			t.reduce += d
		}
	}
	return t
}

// layerSplit is one query's traced per-layer figures.
type layerSplit struct {
	p      probeSnap
	phases phaseTimes
	c      *mapreduce.Counters // nil on service-mix, which reports its own
	cost   cost
	// journalBytes is the coordinator journal's size at job end.
	journalBytes int64
	// n is how many queries the split covers; every figure is divided by
	// it (1 for a single query, the request count for a service round).
	n float64
}

// attributed is the busy time the trace assigns to some layer: the engine
// phase spans (or remote attempts) plus the store calls made outside them.
func (s layerSplit) attributed() float64 {
	return s.phases.total() + secs(s.p.remoteNS) + secs(s.p.getNS+s.p.putNS)
}

// reconcileSlack is how far a query's attributed time may exceed its CPU
// time before the reconciliation flags it. Spans measure wall time, so a
// span also counts the time its goroutine waited for a CPU.
const reconcileSlack = 0.05

// reconcile checks that each traced query's per-layer self times sum to no
// more than its CPU time, up to reconcileSlack, and describes the result.
func reconcile(splits []layerSplit) string {
	var over int
	var attributed, cpu float64
	for _, s := range splits {
		attributed += s.attributed()
		cpu += s.cost.cpu
		if s.attributed() > s.cost.cpu*(1+reconcileSlack) {
			over++
		}
	}
	verdict := "holds"
	if over > 0 {
		verdict = fmt.Sprintf("exceeded on %d of %d", over, len(splits))
	}
	return fmt.Sprintf("reconciliation: layers attribute %.3f s of %.3f s CPU (%.1f%%); attributed <= CPU x %.2f %s",
		attributed, cpu, 100*attributed/cpu, 1+reconcileSlack, verdict)
}

// layerMetrics turns per-query splits into the per-layer table, taking the
// median of each figure across queries.
func layerMetrics(splits []layerSplit, tracedP50 float64) map[string]float64 {
	col := func(f func(layerSplit) float64) float64 {
		xs := make([]float64, len(splits))
		for i, s := range splits {
			xs[i] = f(s) / s.n
		}
		return median(xs)
	}
	ctr := func(f func(*mapreduce.Counters) int64) func(layerSplit) float64 {
		return func(s layerSplit) float64 {
			if s.c == nil {
				return 0
			}
			return float64(f(s.c))
		}
	}
	m := map[string]float64{
		"keys.compares":             col(func(s layerSplit) float64 { return float64(s.p.compares) }),
		"mapreduce.map_s":           col(func(s layerSplit) float64 { return s.phases.mapS }),
		"mapreduce.spill_s":         col(func(s layerSplit) float64 { return s.phases.spill }),
		"mapreduce.sort_s":          col(func(s layerSplit) float64 { return s.phases.spill - s.phases.spillCodec }),
		"mapreduce.merge_s":         col(func(s layerSplit) float64 { return s.phases.merge }),
		"mapreduce.fetch_s":         col(func(s layerSplit) float64 { return s.phases.fetch }),
		"mapreduce.reduce_s":        col(func(s layerSplit) float64 { return s.phases.reduce }),
		"mapreduce.failed_attempts": col(ctr(func(c *mapreduce.Counters) int64 { return c.MapAttemptsFailed.Value() + c.ReduceAttemptsFailed.Value() })),
		"mapreduce.task_retries":    col(ctr(func(c *mapreduce.Counters) int64 { return c.TaskRetries.Value() })),
		"scihadoop.reduce_calls":    col(func(s layerSplit) float64 { return float64(s.p.reduceCalls) }),
		"scihadoop.reduce_s":        col(func(s layerSplit) float64 { return secs(s.p.reduceNS) }),
		"codec.encode_s":            col(func(s layerSplit) float64 { return secs(s.p.encodeNS) }),
		"codec.decode_s":            col(func(s layerSplit) float64 { return secs(s.p.decodeNS) }),
		"codec.raw_mb":              col(func(s layerSplit) float64 { return float64(s.p.rawBytes) / mb }),
		"codec.coded_mb":            col(func(s layerSplit) float64 { return float64(s.p.codedBytes) / mb }),
		"shufflenet.fetches":        col(ctr(func(c *mapreduce.Counters) int64 { return c.ShuffleFetches.Value() })),
		"shufflenet.fetch_retries":  col(ctr(func(c *mapreduce.Counters) int64 { return c.ShuffleFetchRetries.Value() })),
		"shufflenet.fetch_mb": col(ctr(func(c *mapreduce.Counters) int64 {
			if c.ShuffleFetches.Value() == 0 {
				return 0 // the in-memory shuffle bypasses shufflenet
			}
			return c.ReduceShuffleBytes.Value() + c.ShuffleFetchWastedBytes.Value()
		})) / mb,
		"clusterd.publish_mb":       col(func(s layerSplit) float64 { return float64(s.p.publishBytes) / mb }),
		"clusterd.journal_mb":       col(func(s layerSplit) float64 { return float64(s.journalBytes) / mb }),
		"clusterd.remote_attempts":  col(func(s layerSplit) float64 { return float64(s.p.remoteAttempts) }),
		"clusterd.remote_attempt_s": col(func(s layerSplit) float64 { return secs(s.p.remoteNS) }),
		"store.get_s":               col(func(s layerSplit) float64 { return secs(s.p.getNS) }),
		"store.put_s":               col(func(s layerSplit) float64 { return secs(s.p.putNS) }),
		"store.get_mb":              col(func(s layerSplit) float64 { return float64(s.p.getBytes) / mb }),
		"store.put_mb":              col(func(s layerSplit) float64 { return float64(s.p.putBytes) / mb }),
		"process.alloc_mb":          col(func(s layerSplit) float64 { return s.cost.allocMB }),
		"process.gc_cycles":         col(func(s layerSplit) float64 { return s.cost.gcs }),
		"trace.query_p50_s":         tracedP50,
		"trace.attributed_s":        col(func(s layerSplit) float64 { return s.attributed() }),
		"trace.reconcile_gap_s":     col(func(s layerSplit) float64 { return math.Abs(s.cost.cpu - s.attributed()) }),
	}
	// The queryd figures are filled in by the service workload.
	for _, k := range []string{"queryd.hit_ratio", "queryd.hit_s", "queryd.miss_s"} {
		m[k] = 0
	}
	return m
}
