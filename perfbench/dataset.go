package main

import (
	"fmt"
	"math/rand"

	"scikey/internal/core"
	"scikey/internal/grid"
	"scikey/internal/hdfs"
	"scikey/internal/keys"
	"scikey/internal/mapreduce"
	"scikey/internal/scihadoop"
	"scikey/internal/workload"
)

// dataSpec is one generated input: a side x side windspeed1 field whose
// grid origin the seed shifts. Cell values and key bytes are functions of
// the coordinates, so every input byte moves with the origin while the cell
// count stays fixed. It is also the job description cluster workers
// rebuild their job from.
type dataSpec struct {
	Side     int    `json:"side"`
	OriginX  int    `json:"origin_x"`
	OriginY  int    `json:"origin_y"`
	Strategy string `json:"strategy"`
}

// seededSpec draws the origin from the seed. Origins stay non-negative,
// like the array indices of a real dataset.
func seededSpec(seed int64, side int, strategy string) dataSpec {
	rng := rand.New(rand.NewSource(seed))
	return dataSpec{Side: side, OriginX: rng.Intn(1 << 12), OriginY: rng.Intn(1 << 12), Strategy: strategy}
}

func (d dataSpec) extent() grid.Box {
	return grid.NewBox(grid.Coord{d.OriginX, d.OriginY}, []int{d.Side, d.Side})
}

func (d dataSpec) field() *workload.Field {
	return &workload.Field{Extent: d.extent(), Name: "windspeed1"}
}

func (d dataSpec) strategy() (core.Strategy, error) {
	switch d.Strategy {
	case "baseline":
		return core.Strategy{Kind: core.Baseline}, nil
	case "transform":
		return core.Strategy{Kind: core.ByteTransform, Codec: "zlib"}, nil
	}
	return core.Strategy{}, fmt.Errorf("unknown strategy %q", d.Strategy)
}

// setup writes the field to a fresh simulated HDFS with scihadoop.Store and
// returns the paper's sliding-median query over it: radius 1, 10 splits,
// 5 reducers.
func (d dataSpec) setup() (*hdfs.FileSystem, scihadoop.QueryConfig, error) {
	fs := hdfs.New(64<<20, 3, []string{"node0", "node1", "node2", "node3", "node4"})
	ds := scihadoop.Dataset{
		Path:   "/data/windspeed1.arr",
		Var:    keys.VarRef{Name: "windspeed1"},
		Extent: d.extent(),
	}
	if err := scihadoop.Store(fs, ds, d.field()); err != nil {
		return nil, scihadoop.QueryConfig{}, err
	}
	return fs, scihadoop.QueryConfig{DS: ds, Radius: 1, Op: scihadoop.Median, NumSplits: 10, NumReducers: 5}, nil
}

// query is one executed job and its output handle.
type query struct {
	plan *core.JobPlan
	res  *mapreduce.Result
	sha  string
}

// clearOutput deletes a finished query's output files so the next query
// can commit to the same path.
func (q *query) clearOutput(fs *hdfs.FileSystem) error {
	for _, p := range q.res.OutputPaths {
		if err := fs.Delete(p); err != nil {
			return err
		}
	}
	return nil
}

// checkCells compares a query's decoded output with scihadoop.Reference on
// the same field, cell by cell. It returns "" when they agree.
func checkCells(q *query, d dataSpec, radius int, op scihadoop.Op) (string, error) {
	got, err := q.plan.Decode(q.res)
	if err != nil {
		return "", err
	}
	return diffCells(got, scihadoop.Reference(d.field(), d.extent(), radius, op)), nil
}

// diffCells describes the first difference between two query outputs, or
// returns "" when they hold the same cells and values.
func diffCells(got, want scihadoop.CellResults) string {
	if len(got) != len(want) {
		return fmt.Sprintf("output has %d cells, reference has %d", len(got), len(want))
	}
	for cell, v := range want {
		g, ok := got[cell]
		if !ok {
			return fmt.Sprintf("cell %s missing from output", cell)
		}
		if g != v {
			return fmt.Sprintf("cell %s = %d, reference %d", cell, g, v)
		}
	}
	return ""
}
