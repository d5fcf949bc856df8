package keys

import (
	"bytes"
	"testing"

	"scikey/internal/grid"
	"scikey/internal/serial"
	"scikey/internal/sfc"
)

// fuzzMode maps a fuzzed byte onto one of the three variable modes.
func fuzzMode(m byte) VarMode { return VarMode(m % 3) }

// FuzzDecodeAgg: decoding arbitrary bytes never panics, and any accepted
// key covers at least one curve index and re-encodes to exactly the bytes
// it was decoded from — one key, one byte form.
func FuzzDecodeAgg(f *testing.F) {
	for _, mode := range []VarMode{VarNone, VarByIndex, VarByName} {
		c := &Codec{Rank: 2, Mode: mode}
		k := AggKey{Var: VarRef{Name: "windspeed1", Index: 3}, Range: sfc.IndexRange{Lo: 7, Hi: 19}}
		f.Add(byte(mode), c.AggKeyBytes(k))
		k.Range.Hi = k.Range.Lo
		f.Add(byte(mode), c.AggKeyBytes(k))
	}
	f.Fuzz(func(t *testing.T, mode byte, data []byte) {
		c := &Codec{Rank: 2, Mode: fuzzMode(mode)}
		in := serial.NewDataInput(data)
		k, err := c.DecodeAgg(in)
		if err != nil {
			return
		}
		if k.Range.Lo >= k.Range.Hi {
			t.Fatalf("accepted empty range %v", k.Range)
		}
		if enc := c.AggKeyBytes(k); !bytes.Equal(enc, data[:in.Pos()]) {
			t.Fatalf("re-encoding %x differs from decoded bytes %x", enc, data[:in.Pos()])
		}
	})
}

// FuzzDecodeBox: decoding arbitrary bytes never panics, and any accepted
// box has a positive size in every dimension and re-encodes to exactly the
// bytes it was decoded from.
func FuzzDecodeBox(f *testing.F) {
	for _, mode := range []VarMode{VarNone, VarByIndex, VarByName} {
		c := &Codec{Rank: 2, Mode: mode}
		k := BoxKey{Var: VarRef{Name: "pressure", Index: 1}, Box: grid.NewBox(grid.Coord{-1, 4}, []int{3, 2})}
		f.Add(byte(mode), byte(2), c.BoxKeyBytes(k))
		k.Box.Size[1] = 0
		f.Add(byte(mode), byte(2), c.BoxKeyBytes(k))
	}
	f.Fuzz(func(t *testing.T, mode, rank byte, data []byte) {
		c := &Codec{Rank: 1 + int(rank%4), Mode: fuzzMode(mode)}
		in := serial.NewDataInput(data)
		k, err := c.DecodeBox(in)
		if err != nil {
			return
		}
		for d, s := range k.Box.Size {
			if s <= 0 {
				t.Fatalf("accepted size %d in dimension %d", s, d)
			}
		}
		if enc := c.BoxKeyBytes(k); !bytes.Equal(enc, data[:in.Pos()]) {
			t.Fatalf("re-encoding %x differs from decoded bytes %x", enc, data[:in.Pos()])
		}
	})
}
