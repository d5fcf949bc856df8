package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"scikey/internal/mapreduce"
	"scikey/internal/obs"
	"scikey/internal/store"
)

// tinySide keeps every workload small enough for go test.
const tinySide = 24

// payload is the part of a run that tracing must not change: the output
// bytes and the counters describing the data the job moved.
type payload struct {
	sha      string
	counters []int64
}

func payloadOf(q *query) payload {
	c := q.res.Counters
	return payload{sha: q.sha, counters: []int64{
		c.MapInputRecords.Value(), c.MapOutputRecords.Value(), c.MapOutputBytes.Value(),
		c.MapOutputKeyBytes.Value(), c.MapOutputValueBytes.Value(), c.MapOutputMaterializedBytes.Value(),
		c.SpilledRecords.Value(), c.ReduceShuffleBytes.Value(), c.ReduceInputGroups.Value(),
		c.ReduceInputRecords.Value(), c.ReduceOutputRecords.Value(), c.ReduceOutputBytes.Value(),
	}}
}

// TestTracedRunIsIdentical checks, on every workload, that the wrappers and
// the observer a traced run installs leave the output sha256 and payload
// counters exactly as an untraced run produces them, and that the wrappers
// really were in the path.
func TestTracedRunIsIdentical(t *testing.T) {
	oneShot := func(strategy string, shuffle *mapreduce.ShuffleConfig) func(*probe) *query {
		return func(p *probe) *query {
			d := seededSpec(7, tinySide, strategy)
			strat, err := d.strategy()
			if err != nil {
				t.Fatal(err)
			}
			fs, qcfg, err := d.setup()
			if err != nil {
				t.Fatal(err)
			}
			qcfg.Parallelism = 2
			qcfg.Shuffle = shuffle
			if p != nil {
				qcfg.Obs = obs.New()
			}
			q, err := runJob(fs, qcfg, strat, p)
			if err != nil {
				t.Fatal(err)
			}
			return q
		}
	}
	clustered := func(p *probe) *query {
		d := seededSpec(7, tinySide, "baseline")
		strat, err := d.strategy()
		if err != nil {
			t.Fatal(err)
		}
		fs, qcfg, err := d.setup()
		if err != nil {
			t.Fatal(err)
		}
		mc, err := startCluster(d, filepath.Join(t.TempDir(), "coord.journal"), p)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := mc.stop(); err != nil {
				t.Error(err)
			}
		}()
		qcfg.Remote = mc.client
		qcfg.Parallelism = clusterWorkers
		if p != nil {
			qcfg.Obs = obs.New()
		}
		q, err := runJob(fs, qcfg, strat, p)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	cases := []struct {
		name string
		run  func(*probe) *query
		// used reports whether the probe saw the layers this workload wraps.
		used func(probeSnap) bool
	}{
		{"median-records", oneShot("baseline", &mapreduce.ShuffleConfig{Mode: mapreduce.ShuffleTCP, Nodes: 2}),
			func(s probeSnap) bool { return s.compares > 0 && s.reduceCalls > 0 }},
		{"median-transform", oneShot("transform", nil),
			func(s probeSnap) bool { return s.compares > 0 && s.codedBytes > 0 && s.decodeNS > 0 }},
		{"cluster-records", clustered,
			func(s probeSnap) bool { return s.compares > 0 && s.remoteAttempts > 0 && s.publishBytes > 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := payloadOf(tc.run(nil))
			p := &probe{}
			traced := payloadOf(tc.run(p))
			if !reflect.DeepEqual(plain, traced) {
				t.Fatalf("traced run differs:\n untraced %+v\n traced   %+v", plain, traced)
			}
			if !tc.used(p.snap()) {
				t.Fatalf("the wrappers saw no work: %+v", p.snap())
			}
		})
	}

	t.Run("service-mix", func(t *testing.T) {
		specs := serviceSpecs(serviceSides[0] / tinySide)
		seq := requestSequence(rand.New(rand.NewSource(7)), len(specs))[:40]
		plain := serviceRound(specs, seq, store.NewObject(), nil)
		p := &probe{}
		traced := serviceRound(specs, seq, &timedStore{Store: store.NewObject(), p: p}, obs.New())
		hits := [2]int{}
		for i := range seq {
			for k, r := range []reply{plain[i], traced[i]} {
				if r.err != nil {
					t.Fatalf("request %d: %v", i, r.err)
				}
				if r.resp.CacheHit {
					hits[k]++
				}
			}
			a, b := plain[i].resp, traced[i].resp
			if a.OutputSHA != b.OutputSHA || a.Report.MaterializedBytes != b.Report.MaterializedBytes ||
				a.Report.ShuffleBytes != b.Report.ShuffleBytes || a.Report.MapOutputRecords != b.Report.MapOutputRecords {
				t.Fatalf("request %d: traced response differs:\n untraced %+v\n traced   %+v", i, *a.Report, *b.Report)
			}
		}
		if hits[0] != hits[1] {
			t.Fatalf("cache hits: untraced %d, traced %d", hits[0], hits[1])
		}
		if s := p.snap(); s.getBytes == 0 || s.putBytes == 0 {
			t.Fatalf("the store wrapper saw no traffic: %+v", s)
		}
	})
}

// TestWorkloadsVerifyOnTwoSeeds runs every workload end to end at a tiny
// side, untraced and traced, on two seeds: each run must verify its own
// outputs and report exactly its table's metrics.
func TestWorkloadsVerifyOnTwoSeeds(t *testing.T) {
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				var names [][]string
				for _, seed := range []int64{1, 2} {
					out, err := run(options{seed: seed, trace: trace, side: tinySide})
					if err != nil {
						t.Fatalf("seed %d trace %t: %v", seed, trace, err)
					}
					table := endToEnd
					if trace {
						table = perLayer
					}
					res, err := assemble(out, table)
					if err != nil {
						t.Fatalf("seed %d trace %t: %v", seed, trace, err)
					}
					if !res.Correct {
						t.Fatalf("seed %d trace %t: incorrect: %v", seed, trace, out.problems)
					}
					var ks []string
					for k := range res.Metrics {
						ks = append(ks, k)
					}
					sort.Strings(ks)
					names = append(names, ks)
				}
				if !reflect.DeepEqual(names[0], names[1]) {
					t.Fatalf("trace %t: seeds report different metrics: %v vs %v", trace, names[0], names[1])
				}
			}
		})
	}
}

// TestSeedsChangeInputs checks that the seed moves the one-shot grid origin
// and reorders the service's requests.
func TestSeedsChangeInputs(t *testing.T) {
	a, b := seededSpec(1, 256, "baseline"), seededSpec(2, 256, "baseline")
	if a == b {
		t.Fatalf("seeds 1 and 2 give the same dataset %+v", a)
	}
	if seededSpec(1, 256, "baseline") != a {
		t.Fatal("the same seed gives different datasets")
	}
	s1 := requestSequence(rand.New(rand.NewSource(1)), 20)
	s2 := requestSequence(rand.New(rand.NewSource(2)), 20)
	if reflect.DeepEqual(s1, s2) {
		t.Fatal("seeds 1 and 2 give the same request sequence")
	}
}

// TestMetricTables checks that the metric tables match BENCHMARK.json.
func TestMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
	var names []string
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark runs %d", names, len(workloads))
	}
}
