package mapreduce

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scikey/internal/cluster"
	"scikey/internal/obs"
)

// Result reports a completed job: its counters, the per-task resource
// footprints for the cluster cost model, and the output file paths.
type Result struct {
	Counters *Counters
	MapTasks []cluster.Task
	// MapSpecs pairs each map task with its input volume and block hosts
	// for locality-aware estimation.
	MapSpecs    []cluster.MapSpec
	ReduceTasks []cluster.Task
	OutputPaths []string
	// MapPhaseCached reports that the map (and combine) phase was skipped:
	// the published segments came from Job.MapCache, and zero map attempts
	// ran. Output bytes and payload counters are identical either way.
	MapPhaseCached bool
	// WastedMapTasks / WastedReduceTasks are the footprints of attempts
	// whose work was discarded: failures, corruption-replaced map attempts,
	// and speculative losers. The cost model schedules them alongside the
	// committed tasks so recovery overhead shows up in the estimate.
	WastedMapTasks    []cluster.Task
	WastedReduceTasks []cluster.Task
	// CalSamples pairs each winning attempt's modeled footprint with its
	// observed wall clock, for cluster.Config.Fit.
	CalSamples []cluster.CalSample
}

// Calibrate fits the cost model's bandwidth constants to this run's
// observed attempt durations (see cluster.Config.Fit). In-process runs
// whose wall clock is all CPU have no I/O residual to fit and return an
// error; runs with real transport and disk time calibrate.
func (r *Result) Calibrate(base cluster.Config) (cluster.Config, error) {
	return base.Fit(r.CalSamples)
}

// Estimate models the job's runtime on the given cluster, treating all map
// input as node-local. Discarded attempts are charged as wasted slot time.
func (r *Result) Estimate(cfg cluster.Config) cluster.JobEstimate {
	return cfg.EstimateJobWithWaste(r.MapTasks, r.ReduceTasks, r.WastedMapTasks, r.WastedReduceTasks)
}

// EstimateLocality models the runtime with Hadoop's locality-preferring
// map scheduling over the named nodes.
func (r *Result) EstimateLocality(cfg cluster.Config, nodes []string) cluster.LocalityEstimate {
	return cfg.EstimateJobLocality(nodes, r.MapSpecs, r.ReduceTasks)
}

// Run executes the job to completion under the job's RetryPolicy: each task
// runs as a sequence of attempts, failures retry within the budget (with
// deterministic backoff), stragglers may be speculatively re-executed, and
// corrupt shuffle segments trigger re-execution of the producing map task.
// Only winning attempts contribute output, counters, and footprints; every
// discarded attempt's work is recorded as waste.
func Run(job *Job) (*Result, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	// jc holds the scheduling counters during the run; winning attempts'
	// payload counters merge in at the end.
	jc := &Counters{}

	// The job span roots the trace; everything below is nil-safe no-ops
	// when the job has no Observer.
	tr := job.Obs.T()
	jobName := job.Name
	if jobName == "" {
		jobName = "job"
	}
	jobSpan := tr.Start(obs.CatJob, jobName, 0, -1, -1)
	jobOutcome := "failed"
	defer func() { jobSpan.EndOutcome(jobOutcome) }()

	// jobStop is the job-wide cancel signal: the deadline timer trips it,
	// and every phase propagates it into in-flight attempts, backoff sleeps,
	// straggler waits, and shuffle fetches.
	jobStop := newStopState()
	var timedOut atomic.Bool
	if job.Timeout > 0 {
		timer := time.AfterFunc(job.Timeout, func() {
			timedOut.Store(true)
			jobStop.stop()
		})
		defer timer.Stop()
	}
	timeout := func() error {
		if timedOut.Load() {
			return &TimeoutError{Timeout: job.Timeout}
		}
		return nil
	}

	// svc is nil for the in-memory shuffle; otherwise the per-node shuffle
	// servers are live for the whole run, and committed map output is
	// published to them instead of handed to reducers directly.
	svc, err := newShuffleService(job)
	if err != nil {
		return nil, err
	}
	if svc != nil {
		defer svc.Close()
	}

	// cached, when non-nil, is a restored map phase: the map and combine
	// phases are skipped, the published segments below come from the cache,
	// and the assembly at the end replays the snapshot's footprints and
	// counters. A snapshot that doesn't fit the job's shape is a miss.
	var cached *MapPhaseSnapshot
	if job.MapCache != nil && job.CacheKey != "" {
		if snap, ok := job.MapCache.Get(job.CacheKey); ok && snap.matches(job) {
			cached = snap
		}
	}

	var (
		outMu      sync.Mutex
		tasks      = make([]*mapTask, len(job.Splits))
		mapOutputs = make([][]segment, len(job.Splits))
		wastedMaps []cluster.Task
	)
	// nb is the in-node combine buffer (nil when the job doesn't combine).
	// With combining on, committed map output is fed here instead of being
	// published raw; the combine phase between the map and reduce phases
	// merges each node group's segments and publishes the combined view.
	// A cache hit restores the post-combine view directly, so it needs no
	// buffer.
	var nb *NodeBuffer
	if cached == nil {
		nb = newNodeBuffer(job)
	}
	// publish pushes a committed map attempt's segments to its shuffle node
	// (networked shuffle) or to the coordinator's segment table (remote
	// execution) so reduce attempts fetch the freshest committed output —
	// or, when combining, feeds the node buffer, deferring all publication
	// to the combine phase (the reduce phase only starts after the map
	// barrier, so nothing fetches early).
	publish := func(t *mapTask) {
		if nb != nil {
			nb.feed(t.id, t.attempt, t.finals)
			return
		}
		if svc == nil && job.Remote == nil {
			return
		}
		parts := make([][]byte, len(t.finals))
		for p := range t.finals {
			parts[p] = t.finals[p].data
		}
		if svc != nil {
			svc.Publish(t.id, t.attempt, parts)
		}
		if job.Remote != nil {
			job.Remote.PublishRemote(t.id, t.attempt, parts)
		}
	}
	addMapWaste := func(t *mapTask) {
		if t == nil {
			return
		}
		outMu.Lock()
		wastedMaps = append(wastedMaps, t.footprint)
		outMu.Unlock()
	}

	attemptHelp := "Duration of task attempts by phase"
	mapRunner := &phaseRunner{
		phase:   "map",
		n:       len(job.Splits),
		limit:   job.parallelism(),
		policy:  job.Retry,
		jc:      jc,
		jobStop: jobStop,
		tracer:  tr,
		jobSpan: jobSpan.ID(),
		attemptHist: job.Obs.R().Histogram("scikey_attempt_seconds",
			attemptHelp, "seconds", nil, obs.L("phase", "map")),
		run: func(task, attempt int, canceled func() bool, sp obs.Span) (any, error) {
			if job.Remote != nil {
				rr, err := job.Remote.RunRemote(PhaseMap, task, attempt, canceled)
				return newRemoteMapTask(job, task, attempt, rr), err
			}
			t := newMapTask(job, task, attempt, canceled)
			t.tracer, t.span = sp.Tracer(), sp.ID()
			return t, t.run(job.Splits[task])
		},
		commit: func(task, attempt int, result any) error {
			t := result.(*mapTask)
			outMu.Lock()
			tasks[task] = t
			// With combining, mapOutputs holds the combined view installed
			// by the combine phase; raw finals live in the node buffer.
			if nb == nil {
				mapOutputs[task] = t.finals
			}
			outMu.Unlock()
			publish(t)
			return nil
		},
		discard: func(task, attempt int, result any, err error) {
			t, _ := result.(*mapTask)
			addMapWaste(t)
		},
	}
	if cached != nil {
		// Restore the cached map phase: install the published segments and
		// republish them to the shuffle service / remote segment table under
		// their original attempt numbers, exactly as the producing run did.
		// No map attempt runs and no attempt span or histogram sample is
		// recorded — "map attempts: zero" is the observable cache-hit
		// signature the differential tests assert.
		outs := cached.restoreSegments()
		outMu.Lock()
		copy(mapOutputs, outs)
		outMu.Unlock()
		if svc != nil || job.Remote != nil {
			for m, row := range outs {
				parts := make([][]byte, len(row))
				for p := range row {
					parts[p] = row[p].data
				}
				if svc != nil {
					svc.Publish(m, cached.Attempts[m], parts)
				}
				if job.Remote != nil {
					job.Remote.PublishRemote(m, cached.Attempts[m], parts)
				}
			}
		}
	} else if err := mapRunner.runAll(); err != nil {
		return nil, err
	}
	if err := timeout(); err != nil {
		return nil, err
	}

	// rerunMap re-executes map task m until an attempt succeeds (within the
	// retry budget), swapping the fresh output in and recording the replaced
	// attempt's work as waste. Callers hold repairMu.
	var repairMu sync.Mutex
	rerunMap := func(m int) bool {
		outMu.Lock()
		cur := tasks[m]
		outMu.Unlock()
		for rerun := 0; rerun < job.Retry.maxAttempts(); rerun++ {
			if jobStop.stopped() {
				return false
			}
			a := mapRunner.nextAttempt(m)
			sp := mapRunner.startSpan(m, a, false)
			res, err := mapRunner.runOne(m, a, nil, sp)
			sp.EndOutcome(attemptOutcome(err, true))
			nt, _ := res.(*mapTask)
			if err == nil {
				outMu.Lock()
				tasks[m] = nt
				if nb == nil {
					mapOutputs[m] = nt.finals
				}
				outMu.Unlock()
				publish(nt)
				addMapWaste(cur)
				jc.MapTasksRecovered.Add(1)
				jc.TaskRetries.Add(1)
				return true
			}
			mapRunner.countFailure(m, a, err)
			addMapWaste(nt)
		}
		return false
	}

	// pushGroup installs one node group's combined view — the combined row
	// under the representative task, empty rows under the other members, so
	// the (map task, partition) fetch topology is unchanged — and publishes
	// it to the shuffle service and/or remote segment table. Callers hold
	// repairMu.
	pushGroup := func(g int) {
		members := nb.members(g)
		outMu.Lock()
		for _, m := range members {
			mapOutputs[m], _ = nb.row(m)
		}
		outMu.Unlock()
		if svc == nil && job.Remote == nil {
			return
		}
		for _, m := range members {
			row, attempt := nb.row(m)
			parts := make([][]byte, len(row))
			for p := range row {
				parts[p] = row[p].data
			}
			if svc != nil {
				svc.Publish(m, attempt, parts)
			}
			if job.Remote != nil {
				job.Remote.PublishRemote(m, attempt, parts)
			}
		}
	}

	// combineGroup (re)combines a node group from the freshest committed
	// member outputs. A member segment that fails to decode mid-combine is
	// corruption: the producing task re-runs, re-feeds the buffer, and the
	// combine retries — bounded by the per-task retry budget across the
	// whole group. Callers hold repairMu.
	combineGroup := func(g int) error {
		budget := job.Retry.maxAttempts()*nb.groupSize(g) + 1
		for try := 0; try < budget; try++ {
			err := nb.combine(g)
			if err == nil {
				return nil
			}
			var ce *ErrCorruptSegment
			if !errors.As(err, &ce) || jobStop.stopped() {
				return err
			}
			jc.CorruptSegmentsDetected.Add(1)
			if !rerunMap(ce.MapTask) {
				return err
			}
		}
		return fmt.Errorf("mapreduce: job %q: combine of node group %d exhausted its retry budget", job.Name, g)
	}

	// recoverMap re-executes the map task named by a corrupt-segment report
	// — detected corruption or map output lost to an exhausted networked
	// fetch — replacing (and republishing) its output so the reducer's retry
	// reads intact bytes. With combining, the re-fed group recombines and
	// republishes before the reducer retries. Serialized: two reducers
	// hitting the same bad segment repair it once.
	recoverMap := func(ce *ErrCorruptSegment) bool {
		repairMu.Lock()
		defer repairMu.Unlock()
		outMu.Lock()
		cur := tasks[ce.MapTask]
		outMu.Unlock()
		if cur == nil {
			return false
		}
		if cur.attempt != ce.Attempt {
			// A newer attempt already replaced the reported output; the
			// reducer's retry will fetch the fresh segments.
			return true
		}
		if !rerunMap(ce.MapTask) {
			return false
		}
		if nb != nil {
			g := nb.groupOf(ce.MapTask)
			if err := combineGroup(g); err != nil {
				return false
			}
			pushGroup(g)
		}
		return true
	}

	// The combine phase: with in-node combining on, every node group's
	// committed segments merge — equal-key runs folded with the job's
	// Combiner — and only the combined view is
	// published. Runs strictly between the map barrier and the reduce
	// phase, so reducers never see raw member segments.
	if nb != nil {
		err := func() error {
			repairMu.Lock()
			defer repairMu.Unlock()
			for g := 0; g < nb.numGroups(); g++ {
				if err := combineGroup(g); err != nil {
					return err
				}
				pushGroup(g)
			}
			return nil
		}()
		if err != nil {
			return nil, err
		}
		if err := timeout(); err != nil {
			return nil, err
		}
	}

	var (
		rtasks        = make([]*reduceTask, job.NumReducers)
		wastedReduces []cluster.Task
	)
	// committedAttempt names the current attempt of a map task, for
	// exhausted-fetch reports (the fetcher never saw the lost bytes'
	// provenance).
	committedAttempt := func(m int) int {
		if cached != nil {
			return cached.Attempts[m]
		}
		outMu.Lock()
		defer outMu.Unlock()
		if tasks[m] == nil {
			return -1
		}
		return tasks[m].attempt
	}
	var reduceRunner *phaseRunner
	reduceRunner = &phaseRunner{
		phase:   "reduce",
		n:       job.NumReducers,
		limit:   job.parallelism(),
		policy:  job.Retry,
		jc:      jc,
		jobStop: jobStop,
		tracer:  tr,
		jobSpan: jobSpan.ID(),
		attemptHist: job.Obs.R().Histogram("scikey_attempt_seconds",
			attemptHelp, "seconds", nil, obs.L("phase", "reduce")),
		run: func(task, attempt int, canceled func() bool, sp obs.Span) (any, error) {
			if job.Remote != nil {
				rr, err := job.Remote.RunRemote(PhaseReduce, task, attempt, canceled)
				return newRemoteReduceTask(job, task, attempt, rr), err
			}
			t := newReduceTask(job, task, attempt, canceled)
			t.tracer, t.span = sp.Tracer(), sp.ID()
			var src segmentSource
			if svc != nil {
				src = &netSource{
					svc:       svc,
					n:         len(job.Splits),
					stop:      reduceRunner.stop.ch,
					attemptOf: committedAttempt,
					verify:    canVerifyAtFetch(job),
				}
			} else {
				// Snapshot the map outputs under the lock: a concurrent
				// repair may be swapping a recovered task's segments in.
				outMu.Lock()
				outs := make([][]segment, len(mapOutputs))
				copy(outs, mapOutputs)
				outMu.Unlock()
				src = memSource{outs: outs}
			}
			return t, t.run(src)
		},
		commit: func(task, attempt int, result any) error {
			t := result.(*reduceTask)
			if err := t.commit(); err != nil {
				return err
			}
			outMu.Lock()
			rtasks[task] = t
			outMu.Unlock()
			return nil
		},
		discard: func(task, attempt int, result any, err error) {
			t, _ := result.(*reduceTask)
			if t == nil {
				return
			}
			t.abort()
			outMu.Lock()
			wastedReduces = append(wastedReduces, t.footprint)
			outMu.Unlock()
		},
		repair: func(task, attempt int, err error) bool {
			var ce *ErrCorruptSegment
			if !errors.As(err, &ce) {
				return false
			}
			return recoverMap(ce)
		},
		onFailure: func(task, attempt int, err error) {
			var ce *ErrCorruptSegment
			if errors.As(err, &ce) {
				jc.CorruptSegmentsDetected.Add(1)
			}
		},
	}
	if err := reduceRunner.runAll(); err != nil {
		return nil, err
	}
	if err := timeout(); err != nil {
		return nil, err
	}
	if svc != nil {
		mergeShuffleMetrics(jc, svc.Metrics())
	}
	if nb != nil {
		nb.fold(jc)
	}

	// Assemble the result from the surviving attempts only. Their private
	// counters merge into the job totals here, so a faulty run that recovers
	// reports byte-for-byte the same payload counters as a fault-free one.
	res := &Result{
		Counters:          jc,
		MapTasks:          make([]cluster.Task, len(tasks)),
		MapSpecs:          make([]cluster.MapSpec, len(tasks)),
		ReduceTasks:       make([]cluster.Task, job.NumReducers),
		OutputPaths:       make([]string, job.NumReducers),
		WastedMapTasks:    wastedMaps,
		WastedReduceTasks: wastedReduces,
	}
	if cached != nil {
		// Replay the snapshot's map-side contribution: the same payload
		// counters the producing run merged, and the same footprints and
		// calibration samples, so cost estimates and counter reports match
		// a cold run byte for byte.
		res.MapPhaseCached = true
		if err := jc.AddSnapshot(cached.Counters); err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: cached map counters: %w", job.Name, err)
		}
		for i := range cached.Footprints {
			res.MapTasks[i] = cached.Footprints[i]
			res.MapSpecs[i] = cluster.MapSpec{Task: cached.Footprints[i], InputBytes: cached.InputBytes[i], Hosts: cached.Hosts[i]}
			res.CalSamples = append(res.CalSamples, calSample(cached.Footprints[i], cached.WallSeconds[i]))
		}
	} else {
		for i, t := range tasks {
			jc.Merge(t.counters())
			res.MapTasks[i] = t.footprint
			res.MapSpecs[i] = cluster.MapSpec{Task: t.footprint, InputBytes: t.ctx.inputBytes, Hosts: t.hosts}
			res.CalSamples = append(res.CalSamples, calSample(t.footprint, t.wallSeconds))
		}
	}
	for r, t := range rtasks {
		jc.Merge(t.counters())
		res.ReduceTasks[r] = t.footprint
		res.OutputPaths[r] = t.outPath
		res.CalSamples = append(res.CalSamples, calSample(t.footprint, t.wallSeconds))
	}
	if cached == nil && job.MapCache != nil && job.CacheKey != "" {
		// Store the published map state for the next identical query. The
		// cache is best-effort: a backend that cannot persist the snapshot
		// must not fail a job that already succeeded, so Put errors are
		// dropped (backends surface them through their own metrics).
		if snap, err := snapshotMapPhase(job, tasks, mapOutputs, nb); err == nil {
			_ = job.MapCache.Put(job.CacheKey, snap)
		}
	}
	publishCounters(job.Obs.R(), jc)
	jobOutcome = "ok"
	return res, nil
}

// calSample pairs one committed attempt's modeled footprint with its
// observed wall clock.
func calSample(fp cluster.Task, wallSeconds float64) cluster.CalSample {
	return cluster.CalSample{
		CPUSeconds:  fp.CPUSeconds,
		DiskBytes:   fp.DiskBytes,
		NetBytes:    fp.NetBytes,
		WallSeconds: wallSeconds,
	}
}
