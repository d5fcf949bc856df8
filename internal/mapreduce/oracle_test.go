package mapreduce

import (
	"bytes"
	"testing"

	"scikey/internal/codec"
	"scikey/internal/ifile"
)

// The materialize-then-group reduce oracle. It is the historical reduce
// path — merge a partition's segments into one in-memory slice, transform
// the whole slice, group and reduce it — kept in tests so the differential
// suites can prove the streaming reduce path byte-identical to it.

// writeSegment encodes sorted pairs as a segment — the fixture builder for
// tests and benchmarks.
func writeSegment(pairs []KV, c codec.Codec) (segment, error) {
	pb := &partBuffer{pairs: pairs}
	for _, p := range pairs {
		pb.bytes += len(p.Key) + len(p.Value)
	}
	return writeSegmentStream(pb, c, pb.segmentBound())
}

// mergeSegments k-way merges sorted segments into one sorted in-memory run:
// the materializing form of mergeStream.
func mergeSegments(segs []segment, env readEnv, cmp func(a, b []byte) int) ([]KV, error) {
	var total int64
	for _, s := range segs {
		total += s.records
	}
	m, err := newMergeStream(segs, env, cmp)
	if err != nil {
		return nil, err
	}
	defer m.close()
	out := make([]KV, 0, total)
	for {
		kv, ok, err := m.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, kv)
	}
}

// captureCache is a MapOutputCache that never hits and keeps the snapshot
// it is handed: the published map output of a finished run, for the oracle
// to reduce.
type captureCache struct{ snap *MapPhaseSnapshot }

func (c *captureCache) Get(string) (*MapPhaseSnapshot, bool) { return nil, false }

func (c *captureCache) Put(_ string, snap *MapPhaseSnapshot) error {
	c.snap = snap.Clone()
	return nil
}

// referenceReduce runs the oracle over a finished run's published map
// output: per partition, it materializes the merged partition, applies
// transform to the whole slice (nil for none), groups and reduces it with a
// fresh job reducer, and returns each partition's output file bytes plus
// the reduce-side counters the streaming path must reproduce.
func referenceReduce(t *testing.T, job *Job, snap *MapPhaseSnapshot, transform func([]KV) []KV) ([]string, *Counters) {
	t.Helper()
	published := snap.restoreSegments()
	var c Counters
	outs := make([]string, job.NumReducers)
	for p := range outs {
		var segs []segment
		for _, row := range published {
			segs = append(segs, row[p])
		}
		pairs, err := mergeSegments(segs, readEnv{codec: job.codec(), part: p}, job.Compare)
		if err != nil {
			t.Fatalf("oracle merge of partition %d: %v", p, err)
		}
		c.ReduceInputRecords.Add(int64(len(pairs)))
		if transform != nil {
			before := len(pairs)
			pairs = transform(pairs)
			if d := len(pairs) - before; d > 0 {
				c.OverlapKeySplits.Add(int64(d))
			}
		}
		var buf bytes.Buffer
		iw := ifile.NewWriter(&buf)
		emit := func(k, v []byte) {
			if err := iw.Append(k, v); err != nil {
				t.Fatal(err)
			}
			c.ReduceOutputRecords.Add(1)
			c.ReduceOutputBytes.Add(int64(len(k) + len(v)))
		}
		ctx := &TaskContext{TaskID: p, counters: &c}
		red := job.NewReducer()
		if err := groupReduce(ctx, &partBuffer{pairs: pairs}, job.Compare, red, emit, nil, false); err != nil {
			t.Fatalf("oracle reduce of partition %d: %v", p, err)
		}
		if f, ok := red.(Finalizer); ok {
			if err := f.Finish(ctx, emit); err != nil {
				t.Fatal(err)
			}
		}
		if err := iw.Close(); err != nil {
			t.Fatal(err)
		}
		outs[p] = buf.String()
	}
	return outs, &c
}

// expected is what a run must reproduce: the oracle's output files and
// reduce-side counters over the published map output, plus the map-side
// counters of the fault-free run that published it.
type expected struct {
	outs     []string
	counters map[string]int64
}

// payloadCounters extracts the payload counters a run and its expectation
// must agree on.
func payloadCounters(c *Counters) map[string]int64 {
	return map[string]int64{
		"ReduceInputRecords":  c.ReduceInputRecords.Value(),
		"ReduceInputGroups":   c.ReduceInputGroups.Value(),
		"ReduceOutputRecords": c.ReduceOutputRecords.Value(),
		"ReduceOutputBytes":   c.ReduceOutputBytes.Value(),
		"OverlapKeySplits":    c.OverlapKeySplits.Value(),
		"SpilledRecords":      c.SpilledRecords.Value(),
		"MapOutputRecords":    c.MapOutputRecords.Value(),
	}
}

// assertMatchesOracle compares a streaming run's output files and payload
// counters with the expectation runDiff built.
func assertMatchesOracle(t *testing.T, outs []string, c *Counters, want expected) {
	t.Helper()
	if len(outs) != len(want.outs) {
		t.Fatalf("partition counts differ: oracle %d, streaming %d", len(want.outs), len(outs))
	}
	for i := range want.outs {
		if outs[i] != want.outs[i] {
			t.Errorf("partition %d output bytes differ (oracle %d B, streaming %d B)",
				i, len(want.outs[i]), len(outs[i]))
		}
	}
	got := payloadCounters(c)
	for name, w := range want.counters {
		if got[name] != w {
			t.Errorf("counter %s: streaming %d, expected %d", name, got[name], w)
		}
	}
}
