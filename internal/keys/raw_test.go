package keys

import (
	"testing"

	"scikey/internal/grid"
	"scikey/internal/sfc"
)

var rawSink int

// TestRawComparatorsAllocFree guards the raw comparators' point: on
// well-formed keys, in every variable mode, a compare allocates nothing.
// The keys differ only in their last field, so each call walks every byte.
func TestRawComparatorsAllocFree(t *testing.T) {
	for _, mode := range []VarMode{VarNone, VarByIndex, VarByName} {
		c := &Codec{Rank: 3, Mode: mode}
		v := VarRef{Name: "windspeed1", Index: 2}
		cmps := map[string]struct {
			raw  func(a, b []byte) int
			a, b []byte
		}{
			"grid": {c.RawCompareGrid,
				c.GridKeyBytes(GridKey{Var: v, Coord: grid.Coord{-4, 5, 6}}),
				c.GridKeyBytes(GridKey{Var: v, Coord: grid.Coord{-4, 5, 7}})},
			"agg": {c.RawCompareAgg,
				c.AggKeyBytes(AggKey{Var: v, Range: sfc.IndexRange{Lo: 9, Hi: 12}}),
				c.AggKeyBytes(AggKey{Var: v, Range: sfc.IndexRange{Lo: 9, Hi: 13}})},
			"box": {c.RawCompareBox,
				c.BoxKeyBytes(BoxKey{Var: v, Box: grid.NewBox(grid.Coord{-4, 5, 6}, []int{2, 2, 2})}),
				c.BoxKeyBytes(BoxKey{Var: v, Box: grid.NewBox(grid.Coord{-4, 5, 6}, []int{2, 2, 3})})},
		}
		for name, k := range cmps {
			if k.raw(k.a, k.b) >= 0 {
				t.Fatalf("%s/%s: compare(a, b) >= 0", name, mode)
			}
			allocs := testing.AllocsPerRun(100, func() { rawSink += k.raw(k.a, k.b) })
			if allocs != 0 {
				t.Errorf("%s/%s: %.1f allocs per compare, want 0", name, mode, allocs)
			}
		}
	}
}

// BenchmarkRawCompareGrid times one compare of the median jobs' simple keys
// (VarByName, rank 2) that walks the whole key.
func BenchmarkRawCompareGrid(b *testing.B) {
	c := &Codec{Rank: 2, Mode: VarByName}
	v := VarRef{Name: "windspeed1"}
	x := c.GridKeyBytes(GridKey{Var: v, Coord: grid.Coord{120, 37}})
	y := c.GridKeyBytes(GridKey{Var: v, Coord: grid.Coord{120, 38}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rawSink += c.RawCompareGrid(x, y)
	}
}
