package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"scikey/internal/experiments"
	"scikey/internal/grid"
	"scikey/internal/obs"
	"scikey/internal/queryd"
	"scikey/internal/scihadoop"
	"scikey/internal/store"
	"scikey/internal/workload"
)

const (
	// serviceClients is the closed-loop client count: each sends its next
	// request only after the previous one returns.
	serviceClients = 2
	// serviceRepeats is how often each spec appears in one round, so a
	// fifth of a round's requests are cold misses.
	serviceRepeats = 5
)

// serviceSides are the grid sides of the request mix.
var serviceSides = []int{160, 176, 192, 208, 224}

// serviceSpecs is the distinct query mix: four query shapes at each side,
// none of which needs the spill-sort or the predictor heavily.
func serviceSpecs(scale int) []queryd.QuerySpec {
	shapes := []queryd.QuerySpec{
		{Strategy: "aggregation", Curve: "zorder", Op: "median"},
		{Strategy: "aggregation", Curve: "hilbert", Op: "median"},
		{Strategy: "boxes", Op: "median"},
		{Strategy: "aggregation", Curve: "zorder", Op: "max", Combine: true},
	}
	var specs []queryd.QuerySpec
	for _, side := range serviceSides {
		for _, s := range shapes {
			s.Side = side / scale
			s.Radius, s.Splits, s.Reducers = 1, 10, 5
			specs = append(specs, s)
		}
	}
	return specs
}

// requestSequence is one round's requests as indexes into specs: every
// spec serviceRepeats times, in an order the seed picks.
func requestSequence(rng *rand.Rand, nspecs int) []int {
	seq := make([]int, 0, nspecs*serviceRepeats)
	for i := 0; i < nspecs; i++ {
		for r := 0; r < serviceRepeats; r++ {
			seq = append(seq, i)
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// reply is one completed Submit.
type reply struct {
	spec    int
	latency float64
	resp    *queryd.Response
	err     error
}

// serviceRound drives one fresh service (cold cache over a new object
// store) with the request sequence from serviceClients closed-loop clients.
func serviceRound(specs []queryd.QuerySpec, seq []int, st store.Store, ob *obs.Observer) []reply {
	svc := queryd.New(queryd.Config{Store: st, Workers: 2, Obs: ob})
	defer svc.Close()
	replies := make([]reply, len(seq))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(seq) {
					return
				}
				start := time.Now()
				resp, err := svc.Submit(specs[seq[i]])
				replies[i] = reply{spec: seq[i], latency: time.Since(start).Seconds(), resp: resp, err: err}
			}
		}()
	}
	wg.Wait()
	return replies
}

// runServiceMix runs rounds of the request mix against queryd.Service until
// the measured time is up. Each round starts a fresh service, so every
// round has exactly one cold miss per spec.
func runServiceMix(o options) (*outcome, error) {
	scale := 1
	if o.side > 0 {
		scale = serviceSides[0] / o.side
		if scale < 1 {
			scale = 1
		}
	}
	specs := serviceSpecs(scale)
	rng := rand.New(rand.NewSource(o.seed))
	seq := requestSequence(rng, len(specs))

	// Set-up: the datasets the mix reads, as the service generates them,
	// plus the service itself.
	var t timings
	var err error
	t.setup, err = timeSetups(func() (func() error, error) {
		for _, side := range serviceSides {
			if _, _, err := experiments.MedianSetup(side / scale); err != nil {
				return nil, err
			}
		}
		svc := queryd.New(queryd.Config{Store: store.NewObject(), Workers: 2})
		return func() error { svc.Close(); return nil }, nil
	})
	if err != nil {
		return nil, err
	}

	out := &outcome{}
	// Warm-up: one request on a throwaway service, its spec the round's first.
	warmSpec := specs[seq[0]]
	out.attempted++
	if r := serviceRound(specs, seq[:1], store.NewObject(), nil); r[0].err != nil {
		return nil, fmt.Errorf("warm-up request: %w", r[0].err)
	} else if msg, err := checkSpec(warmSpec, r[0].resp.OutputSHA); err != nil {
		return nil, err
	} else if msg != "" {
		out.fail("warm-up request: %s", msg)
	}

	var p *probe
	if o.trace {
		p = &probe{}
	}
	var all []reply
	var splits []layerSplit
	var hitLat, missLat []float64
	var hits int
	var failedAttempts, retries int64
	loopStart := time.Now()
	// Rounds run until the next one would end nearer the measured time
	// than stopping now does: rounds are long, and a run measures about
	// --seconds rather than always overrunning it by most of a round.
	var last time.Duration
	for round := 0; round == 0 || (time.Since(loopStart)+last/2).Seconds() < o.seconds; round++ {
		roundStart := time.Now()
		var st store.Store = store.NewObject()
		var ob *obs.Observer
		var before probeSnap
		if o.trace {
			st = &timedStore{Store: st, p: p}
			ob = obs.New()
			before = p.snap()
		}
		s := begin(o.trace)
		replies := serviceRound(specs, seq, st, ob)
		c := since(s)
		for _, r := range replies {
			out.attempted++
			if r.err != nil {
				out.fail("%s side %d: %v", describe(specs[r.spec]), specs[r.spec].Side, r.err)
				continue
			}
			rep := r.resp.Report
			failedAttempts += rep.FailedAttempts
			retries += rep.TaskRetries
			t.wall = append(t.wall, r.latency)
			t.materialized = append(t.materialized, float64(rep.MaterializedBytes)/mb)
			t.shuffle = append(t.shuffle, float64(rep.ShuffleBytes)/mb)
			t.modeled = append(t.modeled, rep.Estimate.Total())
			if r.resp.CacheHit {
				hits++
				hitLat = append(hitLat, r.latency)
			} else {
				missLat = append(missLat, r.latency)
			}
		}
		n := float64(len(replies))
		t.cpu = append(t.cpu, c.cpu/n)
		all = append(all, replies...)
		last = time.Since(roundStart)
		if o.trace {
			if d := ob.T().Dropped(); d > 0 {
				return nil, fmt.Errorf("tracer dropped %d spans", d)
			}
			splits = append(splits, layerSplit{
				p:      p.snap().sub(before),
				phases: digestSpans(ob.T().Events()),
				cost:   c,
				n:      n,
			})
		}
	}
	t.loop = time.Since(loopStart)
	peak := peakRSSMB()
	out.walls = t.wall

	// Every response must match a one-shot run of its spec.
	want := make(map[int]string)
	for _, r := range all {
		if r.err != nil {
			continue
		}
		sha, ok := want[r.spec]
		if !ok {
			q, _, err := oneShot(specs[r.spec])
			if err != nil {
				return nil, err
			}
			sha = q.sha
			want[r.spec] = sha
		}
		if r.resp.OutputSHA != sha {
			out.fail("%s side %d (cache hit %t): output sha256 %s, one-shot run gives %s",
				describe(specs[r.spec]), specs[r.spec].Side, r.resp.CacheHit, r.resp.OutputSHA, sha)
		}
	}
	if want := len(all) - len(specs)*len(all)/len(seq); hits != want {
		out.fail("%d cache hits, want exactly requests - distinct specs = %d", hits, want)
	}

	if !o.trace {
		out.metrics = t.endToEndMetrics(peak)
		return out, nil
	}
	out.metrics = layerMetrics(splits, median(t.wall))
	out.reconciliation = reconcile(splits)
	out.metrics["mapreduce.failed_attempts"] = float64(failedAttempts) / float64(len(all))
	out.metrics["mapreduce.task_retries"] = float64(retries) / float64(len(all))
	out.metrics["queryd.hit_ratio"] = float64(hits) / float64(len(all))
	out.metrics["queryd.hit_s"] = median(hitLat)
	out.metrics["queryd.miss_s"] = median(missLat)
	return out, nil
}

func describe(s queryd.QuerySpec) string {
	d := s.Strategy
	if s.Curve != "" {
		d += "/" + s.Curve
	}
	d += " " + s.Op
	if s.Combine {
		d += " combine"
	}
	return d
}

// oneShot runs a spec outside the service, the way the one-shot CLI does.
func oneShot(spec queryd.QuerySpec) (*query, scihadoop.QueryConfig, error) {
	fs, qcfg, strat, err := spec.Setup()
	if err != nil {
		return nil, qcfg, err
	}
	qcfg.Parallelism = 2
	q, err := runJob(fs, qcfg, strat, nil)
	if err != nil {
		return nil, qcfg, fmt.Errorf("one-shot %s: %w", describe(spec), err)
	}
	return q, qcfg, nil
}

// checkSpec runs a spec one-shot, compares its output sha256 with got and
// its decoded cells with scihadoop.Reference. It returns "" when both
// agree.
func checkSpec(spec queryd.QuerySpec, got string) (string, error) {
	q, qcfg, err := oneShot(spec)
	if err != nil {
		return "", err
	}
	if q.sha != got {
		return fmt.Sprintf("service output sha256 %s, one-shot run gives %s", got, q.sha), nil
	}
	cells, err := q.plan.Decode(q.res)
	if err != nil {
		return "", err
	}
	extent := grid.NewBox(grid.Coord{0, 0}, []int{spec.Side, spec.Side})
	field := &workload.Field{Extent: extent, Name: qcfg.DS.Var.Name}
	want := scihadoop.Reference(field, extent, qcfg.Radius, qcfg.Op)
	return diffCells(cells, want), nil
}
