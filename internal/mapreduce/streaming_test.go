package mapreduce

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"scikey/internal/codec"
)

// dupTransform duplicates every pair: the whole-slice transform the oracle
// applies for a job running dupSplitter.
func dupTransform(pairs []KV) []KV {
	out := make([]KV, 0, 2*len(pairs))
	for _, p := range pairs {
		out = append(out, p, p)
	}
	return out
}

// dupSplitter duplicates every record, so its output equals dupTransform
// over the whole stream however it buffers. With perKey set it releases
// each run of equal keys when the key changes — the tightest clusters,
// exercising the Push hand-off hard; otherwise it holds the whole stream
// until Flush.
type dupSplitter struct {
	perKey  bool
	pending []KV
}

func (s *dupSplitter) Push(kv KV) ([]KV, error) {
	var out []KV
	if s.perKey && len(s.pending) > 0 && !bytes.Equal(s.pending[0].Key, kv.Key) {
		out = s.release()
	}
	s.pending = append(s.pending, kv)
	return out, nil
}

func (s *dupSplitter) Flush() ([]KV, error) { return s.release(), nil }

func (s *dupSplitter) release() []KV {
	out := dupTransform(s.pending)
	s.pending = nil
	return out
}

// diffCase is one streaming-vs-oracle configuration.
type diffCase struct {
	name      string
	codec     codec.Codec
	comb      bool
	transform bool // install dupSplitter
	perKey    bool // ... releasing per key instead of at Flush
	spec      string
	policy    RetryPolicy
	shuffle   *ShuffleConfig
	reducers  int
	docs      []string
	// routeAll0, when set, sends every key to partition 0 so the other
	// partitions exercise the empty-stream path end to end.
	routeAll0 bool
	parallel  int
}

func (dc diffCase) build(t *testing.T) *Job {
	t.Helper()
	fs := testFS()
	docs := dc.docs
	if docs == nil {
		docs = faultDocs
	}
	reducers := dc.reducers
	if reducers == 0 {
		reducers = 2
	}
	job := wordCountJob(fs, docs, reducers, dc.comb)
	job.MapOutputCodec = dc.codec
	job.Retry = dc.policy
	job.Shuffle = dc.shuffle
	job.Faults = mustInjector(t, dc.spec)
	if dc.parallel > 0 {
		job.Parallelism = dc.parallel
	}
	if dc.transform {
		job.NewSplitter = func() Splitter { return &dupSplitter{perKey: dc.perKey} }
	}
	if dc.routeAll0 {
		job.Partition = func([]byte, int) int { return 0 }
	}
	return job
}

// runDiff executes the case and returns its output files and counters,
// plus the expectation: the oracle over the case's published map output and
// the publishing run's map-side counters. A fault schedule rules out the map
// output cache the capture rides on, so a faulty case captures a fault-free
// twin instead: recovery must reproduce the twin's map output, map-side
// counters and outputs exactly.
func runDiff(t *testing.T, dc diffCase) (outs []string, c *Counters, want expected) {
	t.Helper()
	capture := &captureCache{}
	var published *Counters
	if dc.spec != "" {
		twin := dc
		twin.spec = ""
		job := twin.build(t)
		job.MapCache, job.CacheKey = capture, dc.name
		res, err := Run(job)
		if err != nil {
			t.Fatalf("%s fault-free twin: %v", dc.name, err)
		}
		published = res.Counters
	}
	job := dc.build(t)
	if published == nil {
		job.MapCache, job.CacheKey = capture, dc.name
	}
	res, err := Run(job)
	if err != nil {
		t.Fatalf("%s: %v", dc.name, err)
	}
	if published == nil {
		published = res.Counters
	}
	var transform func([]KV) []KV
	if dc.transform {
		transform = dupTransform
	}
	refOuts, oc := referenceReduce(t, job, capture.snap, transform)
	oc.SpilledRecords.Add(published.SpilledRecords.Value())
	oc.MapOutputRecords.Add(published.MapOutputRecords.Value())
	return readRawOutputs(t, job.FS, res.OutputPaths), res.Counters,
		expected{outs: refOuts, counters: payloadCounters(oc)}
}

// runCase executes the case alone and returns its output files and counters.
func runCase(t *testing.T, dc diffCase) ([]string, *Counters) {
	t.Helper()
	job := dc.build(t)
	res, err := Run(job)
	if err != nil {
		t.Fatalf("%s: %v", dc.name, err)
	}
	return readRawOutputs(t, job.FS, res.OutputPaths), res.Counters
}

// TestStreamingReduceDifferential proves the streaming reduce path emits
// output files — and reduce-side payload counters — byte-identical to the
// materialize-then-group oracle across codecs, the spill combiner,
// splitters (releasing per key and at Flush), chaos schedules, and
// degenerate partitions.
func TestStreamingReduceDifferential(t *testing.T) {
	manyDocs := append(append([]string(nil), faultDocs...),
		"sphinx of black quartz judge my vow",
		"the five boxing wizards jump quickly",
		"jackdaws love my big sphinx of quartz",
	)
	cases := []diffCase{
		{name: "codec-none", codec: nil},
		{name: "codec-gzip", codec: codec.Gzip},
		{name: "codec-bzip2", codec: codec.Bzip2},
		{name: "combiner", codec: codec.Gzip, comb: true},
		{name: "transform-whole-stream", codec: codec.Gzip, transform: true},
		{name: "transform-windowed", codec: nil, transform: true, perKey: true},
		{name: "transform-windowed-bzip2", codec: codec.Bzip2, transform: true, perKey: true},
		{name: "multi-pass-merge", codec: nil, docs: manyDocs, reducers: 1},
		{name: "single-segment", codec: nil, docs: faultDocs[:1], reducers: 1},
		{name: "empty-partitions", codec: nil, reducers: 3, routeAll0: true},
		{name: "empty-partitions-transform", codec: nil, reducers: 3, routeAll0: true,
			transform: true, perKey: true},
		{name: "chaos-local", codec: codec.Gzip, transform: true,
			spec:   "seed=9;map:1:error@0;segment:0.1:corrupt@0;codec:2:error@0",
			policy: RetryPolicy{MaxAttempts: 3}},
		{name: "chaos-net", codec: nil, parallel: 2,
			shuffle: &ShuffleConfig{Mode: ShuffleNet, Nodes: 2, FetchAttempts: 4},
			spec:    "seed=3;net:1:cut@0;net:0.1:corrupt@0",
			policy:  RetryPolicy{MaxAttempts: 3}},
	}
	for _, dc := range cases {
		t.Run(dc.name, func(t *testing.T) {
			outs, c, want := runDiff(t, dc)
			assertMatchesOracle(t, outs, c, want)
		})
	}
}

// TestSplitStreamClusters checks the splitter adapter at the unit level:
// every record passes through the splitter exactly once and in order, the
// released records stream out in order, and the split counter settles on
// the output surplus only once the stream is drained.
func TestSplitStreamClusters(t *testing.T) {
	var pairs []KV
	for i := 0; i < 10; i++ {
		k := []byte(fmt.Sprintf("k%02d", i/2)) // two records per key
		pairs = append(pairs, KV{Key: k, Value: []byte{byte(i)}})
	}
	var c Counter
	ss := &splitStream{src: &partBuffer{pairs: pairs}, sp: &dupSplitter{perKey: true}, splits: &c}
	defer ss.close()
	var got []KV
	for {
		kv, ok, err := ss.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		// The last key's four records come out of Flush, which settles
		// the counter; nothing before them may see it.
		if len(got) < 16 && c.Value() != 0 {
			t.Fatalf("split counter settled mid-stream at record %d", len(got))
		}
		got = append(got, kv)
	}
	if len(got) != 20 {
		t.Fatalf("drained %d records, want 20", len(got))
	}
	for i, kv := range got {
		want := pairs[i/2]
		if !bytes.Equal(kv.Key, want.Key) || !bytes.Equal(kv.Value, want.Value) {
			t.Fatalf("record %d = %q/%v, want %q/%v", i, kv.Key, kv.Value, want.Key, want.Value)
		}
	}
	if c.Value() != 10 {
		t.Errorf("split surplus = %d, want 10", c.Value())
	}
}

// failingSplitter rejects every record, the way an overlap splitter
// rejects a key it cannot decode.
type failingSplitter struct{}

func (failingSplitter) Push(KV) ([]KV, error) { return nil, fmt.Errorf("undecodable key") }
func (failingSplitter) Flush() ([]KV, error)  { return nil, nil }

// TestSplitterErrorFailsAttempt: a splitter error fails the reduce attempt
// with a typed job error instead of crashing the process.
func TestSplitterErrorFailsAttempt(t *testing.T) {
	job := wordCountJob(testFS(), faultDocs, 2, false)
	job.NewSplitter = func() Splitter { return failingSplitter{} }
	_, err := Run(job)
	if err == nil || !strings.Contains(err.Error(), "undecodable key") {
		t.Fatalf("Run error = %v, want the splitter's error", err)
	}
}
