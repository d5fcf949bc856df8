package scihadoop

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"

	"scikey/internal/boxagg"
	"scikey/internal/codec"
	"scikey/internal/grid"
	"scikey/internal/hdfs"
	"scikey/internal/ifile"
	"scikey/internal/keys"
	"scikey/internal/mapreduce"
	"scikey/internal/serial"
)

// captureCache is a MapOutputCache that never hits and keeps the snapshot
// it is handed: a finished run's published map output, for the oracle.
type captureCache struct{ snap *mapreduce.MapPhaseSnapshot }

func (c *captureCache) Get(string) (*mapreduce.MapPhaseSnapshot, bool) { return nil, false }

func (c *captureCache) Put(_ string, snap *mapreduce.MapPhaseSnapshot) error {
	c.snap = snap.Clone()
	return nil
}

// oracleReduce is the materialize-then-group reduce oracle over a run's
// published map output: per partition it decodes every segment, sorts the
// records stably by the job's comparator, applies split to the whole
// partition at once, groups equal keys and reduces them with a fresh job
// reducer. It returns each partition's output file bytes and the summed
// split surplus (output records minus input records).
func oracleReduce(t *testing.T, job *mapreduce.Job, snap *mapreduce.MapPhaseSnapshot, split func([]mapreduce.KV) []mapreduce.KV) ([]string, int64) {
	t.Helper()
	c := job.MapOutputCodec
	if c == nil {
		c = codec.None
	}
	var splits int64
	outs := make([]string, job.NumReducers)
	for p := range outs {
		var pairs []mapreduce.KV
		for _, row := range snap.Segments {
			if len(row[p].Data) == 0 {
				continue
			}
			rc, err := c.NewReader(bytes.NewReader(row[p].Data))
			if err != nil {
				t.Fatal(err)
			}
			r := ifile.NewReader(rc)
			for {
				k, v, err := r.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatalf("oracle read of partition %d: %v", p, err)
				}
				pairs = append(pairs, mapreduce.KV{Key: bytes.Clone(k), Value: bytes.Clone(v)})
			}
		}
		slices.SortStableFunc(pairs, func(a, b mapreduce.KV) int { return job.Compare(a.Key, b.Key) })
		before := len(pairs)
		pairs = split(pairs)
		splits += int64(len(pairs) - before)

		var buf bytes.Buffer
		iw := ifile.NewWriter(&buf)
		emit := func(k, v []byte) {
			if err := iw.Append(k, v); err != nil {
				t.Fatal(err)
			}
		}
		ctx := &mapreduce.TaskContext{TaskID: p}
		red := job.NewReducer()
		for i := 0; i < len(pairs); {
			j := i + 1
			for j < len(pairs) && job.Compare(pairs[i].Key, pairs[j].Key) == 0 {
				j++
			}
			values := make([][]byte, 0, j-i)
			for _, kv := range pairs[i:j] {
				values = append(values, kv.Value)
			}
			if err := red.Reduce(ctx, pairs[i].Key, values, emit); err != nil {
				t.Fatalf("oracle reduce of partition %d: %v", p, err)
			}
			i = j
		}
		if f, ok := red.(mapreduce.Finalizer); ok {
			if err := f.Finish(ctx, emit); err != nil {
				t.Fatal(err)
			}
		}
		if err := iw.Close(); err != nil {
			t.Fatal(err)
		}
		outs[p] = buf.String()
	}
	return outs, splits
}

// splitAggPartition is the whole-partition agg transform: keys.SplitOverlaps
// over one slice holding every record.
func splitAggPartition(kc *keys.Codec) func([]mapreduce.KV) []mapreduce.KV {
	return func(pairs []mapreduce.KV) []mapreduce.KV {
		aps := make([]keys.AggPair, len(pairs))
		for i, p := range pairs {
			k, err := kc.DecodeAgg(serial.NewDataInput(p.Key))
			if err != nil {
				panic(err)
			}
			aps[i] = keys.AggPair{Key: k, Values: p.Value}
		}
		var out []mapreduce.KV
		for _, p := range keys.SplitOverlaps(aps, ElemSize) {
			out = append(out, mapreduce.KV{Key: kc.AggKeyBytes(p.Key), Value: p.Values})
		}
		return out
	}
}

// splitBoxPartition is the whole-partition box transform:
// boxagg.SplitOverlaps over one slice holding every record.
func splitBoxPartition(kc *keys.Codec) func([]mapreduce.KV) []mapreduce.KV {
	return func(pairs []mapreduce.KV) []mapreduce.KV {
		bps := make([]boxagg.Pair, len(pairs))
		for i, p := range pairs {
			k, err := kc.DecodeBox(serial.NewDataInput(p.Key))
			if err != nil {
				panic(err)
			}
			bps[i] = boxagg.Pair{Key: k, Values: p.Value}
		}
		var out []mapreduce.KV
		for _, p := range boxagg.SplitOverlaps(bps, ElemSize) {
			out = append(out, mapreduce.KV{Key: kc.BoxKeyBytes(p.Key), Value: p.Values})
		}
		return out
	}
}

// streamingVsOracle runs job with its published map output captured, then
// checks the streaming reduce output byte for byte against the oracle with
// the whole-partition split, and OverlapKeySplits against that split's
// surplus. It fails the test if no key was split at all.
func streamingVsOracle(t *testing.T, fs *hdfs.FileSystem, job *mapreduce.Job, split func([]mapreduce.KV) []mapreduce.KV) {
	t.Helper()
	capture := &captureCache{}
	job.MapCache, job.CacheKey = capture, job.Name
	res, err := mapreduce.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	refOuts, refSplits := oracleReduce(t, job, capture.snap, split)
	if refSplits == 0 {
		t.Fatal("the oracle split no overlapping keys; test exercises nothing")
	}
	if got := res.Counters.OverlapKeySplits.Value(); got != refSplits {
		t.Errorf("overlap splits: streaming %d, oracle %d", got, refSplits)
	}
	for i, p := range res.OutputPaths {
		data, err := fs.ReadAll(p)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != refOuts[i] {
			t.Errorf("partition %d output bytes differ (oracle %d B, streaming %d B)",
				i, len(refOuts[i]), len(data))
		}
	}
}

// TestStreamingReduceMatchesReferenceAgg validates the agg overlap splitter
// end to end: the streaming reduce path — which splits one cluster of
// overlapping keys at a time — must produce output files byte-identical to
// the oracle running keys.SplitOverlaps over each whole merged partition,
// with identical overlap-split accounting. The extent and split count are
// chosen so reducers actually see overlapping unequal keys.
func TestStreamingReduceMatchesReferenceAgg(t *testing.T) {
	extent := grid.NewBox(grid.Coord{0, 0}, []int{24, 16})
	fs, ds, _ := setup(t, extent)
	cfg := QueryConfig{DS: ds, NumSplits: 4, NumReducers: 3, OutputPath: "/out/agg-stream"}
	job, _, err := AggKeyJob(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kc := &keys.Codec{Rank: 2, Mode: cfg.withDefaults().KeyMode}
	streamingVsOracle(t, fs, job, splitAggPartition(kc))
}

// TestStreamingReduceMatchesReferenceBox is the box-geometry twin: the
// streaming dim-0 cluster split must stay byte-identical to
// boxagg.SplitOverlaps over each whole partition.
func TestStreamingReduceMatchesReferenceBox(t *testing.T) {
	extent := grid.NewBox(grid.Coord{0, 0}, []int{24, 16})
	fs, ds, _ := setup(t, extent)
	cfg := QueryConfig{DS: ds, NumSplits: 4, NumReducers: 3, OutputPath: "/out/box-stream"}
	job, err := BoxKeyJob(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kc := &keys.Codec{Rank: 2, Mode: cfg.withDefaults().KeyMode}
	streamingVsOracle(t, fs, job, splitBoxPartition(kc))
}

// TestSplitterRejectsMalformedKeys: a merged key that fails to decode —
// garbage, or an empty range or box — is an error from the splitter, which
// fails the reduce attempt, never a panic that would take down a resident
// service with it.
func TestSplitterRejectsMalformedKeys(t *testing.T) {
	kc := &keys.Codec{Rank: 2, Mode: keys.VarByName}
	v := keys.VarRef{Name: "windspeed1"}
	emptyAgg := kc.AggKeyBytes(keys.AggKey{Var: v})
	emptyBox := kc.BoxKeyBytes(keys.BoxKey{Var: v, Box: grid.NewBox(grid.Coord{0, 0}, []int{2, 0})})
	for _, tc := range []struct {
		name string
		sp   mapreduce.Splitter
		key  []byte
	}{
		{"agg/garbage", newAggSplitter(kc), []byte{0xff, 1, 2}},
		{"agg/empty-range", newAggSplitter(kc), emptyAgg},
		{"box/garbage", newBoxSplitter(kc), []byte{0xff, 1, 2}},
		{"box/empty-box", newBoxSplitter(kc), emptyBox},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := tc.sp.Push(mapreduce.KV{Key: tc.key, Value: make([]byte, ElemSize)})
			if err == nil || !strings.Contains(err.Error(), "bad") {
				t.Fatalf("Push(%x) = %v, %v; want a bad-key error", tc.key, out, err)
			}
		})
	}
}
