package scihadoop

import (
	"encoding/binary"
	"fmt"

	"scikey/internal/aggregate"
	"scikey/internal/grid"
	"scikey/internal/hdfs"
	"scikey/internal/keys"
	"scikey/internal/mapreduce"
	"scikey/internal/serial"
)

// AggKeyJob builds the Section IV job: mapper output flows through the
// aggregation library into aggregate keys on a space-filling curve; a range
// partitioner splits keys that straddle reducer shards (Section IV-B case
// one); each reducer's merged stream is overlap-split (case two, Fig. 7)
// before grouping; reducers fold each cell across its layered values and
// emit aggregated output.
//
// The returned Mapping converts output aggregate keys back to coordinates.
func AggKeyJob(fs *hdfs.FileSystem, cfg QueryConfig) (*mapreduce.Job, aggregate.Mapping, error) {
	cfg = cfg.withDefaults()
	// The output domain includes the halo: a mapper for (0,0)-(9,9)
	// produces output in (-1,-1)-(10,10).
	domain := cfg.DS.Extent.Expand(cfg.Radius)
	mapping, err := aggregate.MappingFor(cfg.Curve, domain)
	if err != nil {
		return nil, nil, err
	}
	kc := &keys.Codec{Rank: cfg.DS.Extent.Rank(), Mode: cfg.KeyMode}
	splits, err := cfg.DS.Splits(fs, cfg.NumSplits)
	if err != nil {
		return nil, nil, err
	}
	offsets := window(cfg.DS.Extent.Rank(), cfg.Radius)
	cb, cc, err := cfg.combining()
	if err != nil {
		return nil, nil, err
	}
	rp := keys.RangePartitioner{Total: mapping.Total(), NumReducers: cfg.NumReducers}
	ds := cfg.DS
	v := cfg.DS.Var
	op := cfg.Op
	flush := cfg.FlushCells

	job := &mapreduce.Job{
		Name: fmt.Sprintf("%s-agg-%s", op, cfg.Curve),
		// Lane-wise max commutes with the key-splitting rewrites: slicing a
		// folded layer equals folding the slices, so combined aggregate
		// segments split into the same fragments with the same folded cells.
		Combiner:       cb,
		Combine:        cc,
		FS:             fs,
		Splits:         splits,
		NumReducers:    cfg.NumReducers,
		Compare:        kc.RawCompareAgg,
		MapOutputCodec: cfg.MapOutputCodec,
		OutputPath:     cfg.OutputPath,
		Retry:          cfg.Retry,
		Faults:         cfg.Faults,
		Shuffle:        cfg.Shuffle,
		Timeout:        cfg.Timeout,
		Remote:         cfg.Remote,
		Parallelism:    cfg.Parallelism,
		Obs:            cfg.Obs,
		MapCache:       cfg.MapCache,
		CacheKey:       cfg.CacheKey,

		// Section IV-B, case one: split aggregate keys at routing time.
		PartitionSplit: func(key, value []byte, n int) []mapreduce.RoutedKV {
			k, err := kc.DecodeAgg(serial.NewDataInput(key))
			if err != nil {
				panic(fmt.Sprintf("scihadoop: bad agg key: %v", err))
			}
			frags := rp.SplitForPartition(keys.AggPair{Key: k, Values: value}, ElemSize)
			out := make([]mapreduce.RoutedKV, len(frags))
			for i, f := range frags {
				out[i] = mapreduce.RoutedKV{
					Partition: f.Partition,
					KV:        mapreduce.KV{Key: kc.AggKeyBytes(f.Pair.Key), Value: f.Pair.Values},
				}
			}
			return out
		},

		// Section IV-B, case two: split overlapping keys at the reducer.
		NewSplitter: func() mapreduce.Splitter { return newAggSplitter(kc) },

		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, split mapreduce.Split, emit mapreduce.Emit) error {
				box := split.Data.(grid.Box)
				slab, err := readSlab(ctx, ds, box)
				if err != nil {
					return err
				}
				agg := aggregate.New(aggregate.Config{
					Mapping:    mapping,
					Var:        v,
					ElemSize:   ElemSize,
					FlushCells: flush,
					Emit: func(p keys.AggPair) {
						emit(kc.AggKeyBytes(p.Key), p.Values)
					},
				})
				var vbuf [ElemSize]byte
				grid.ForEach(box, func(c grid.Coord) {
					binary.BigEndian.PutUint32(vbuf[:], uint32(cellValue(slab, box, c)))
					for _, off := range offsets {
						agg.Add(c.Add(off), vbuf[:])
					}
				})
				agg.Close()
				return nil
			})
		},

		NewReducer: func() mapreduce.Reducer {
			return &aggReducer{kc: kc, op: op, reagg: cfg.Reaggregate}
		},
	}
	return job, mapping, nil
}

// newAggSplitter builds a reduce attempt's overlap splitter for aggregate
// keys: keys.OverlapSplitter over the decoded merged stream.
func newAggSplitter(kc *keys.Codec) mapreduce.Splitter {
	return &overlapSplitter[keys.AggPair]{
		decode: func(kv mapreduce.KV) (keys.AggPair, error) {
			k, err := kc.DecodeAgg(serial.NewDataInput(kv.Key))
			if err != nil {
				return keys.AggPair{}, fmt.Errorf("scihadoop: bad agg key in merge: %w", err)
			}
			return keys.AggPair{Key: k, Values: kv.Value}, nil
		},
		encode: func(p keys.AggPair) mapreduce.KV {
			return mapreduce.KV{Key: kc.AggKeyBytes(p.Key), Value: p.Values}
		},
		split: &keys.OverlapSplitter{ElemSize: ElemSize},
	}
}

// aggReducer folds each cell of an aggregate-key group across its layered
// values. With reagg set it additionally re-aggregates its output: since
// groups arrive in curve order, output ranges that became fragmented by key
// splitting are coalesced back into maximal contiguous ranges — the
// follow-up Section IV-B sketches ("[aggregation] could also be performed
// in other places to offset the increase in key count caused by key
// splitting").
type aggReducer struct {
	kc    *keys.Codec
	op    Op
	reagg bool

	pending     keys.AggKey
	pendingVals []byte
	hasPending  bool
}

// Reduce implements mapreduce.Reducer.
func (r *aggReducer) Reduce(ctx *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emit) error {
	k, err := r.kc.DecodeAgg(serial.NewDataInput(key))
	if err != nil {
		return err
	}
	n := int(k.Range.Len())
	out := make([]byte, 0, n*ElemSize)
	cell := make([]int32, 0, len(values))
	for i := 0; i < n; i++ {
		cell = cell[:0]
		for _, layer := range values {
			cell = append(cell, int32(binary.BigEndian.Uint32(layer[i*ElemSize:])))
		}
		out = binary.BigEndian.AppendUint32(out, uint32(r.op.fold(cell)))
	}
	if !r.reagg {
		emit(key, out)
		return nil
	}
	if r.hasPending && r.pending.Var == k.Var && r.pending.Range.Hi == k.Range.Lo {
		r.pending.Range.Hi = k.Range.Hi
		r.pendingVals = append(r.pendingVals, out...)
		return nil
	}
	r.flush(emit)
	r.pending = k
	r.pendingVals = out
	r.hasPending = true
	return nil
}

// Finish implements mapreduce.Finalizer.
func (r *aggReducer) Finish(ctx *mapreduce.TaskContext, emit mapreduce.Emit) error {
	r.flush(emit)
	return nil
}

func (r *aggReducer) flush(emit mapreduce.Emit) {
	if !r.hasPending {
		return
	}
	emit(r.kc.AggKeyBytes(r.pending), r.pendingVals)
	r.hasPending = false
	r.pendingVals = nil
}
