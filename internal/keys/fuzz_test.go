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

// wholeKey is the decode-then-compare oracle's parse: a key is well-formed
// exactly when dec accepts it and consumes every byte.
func wholeKey[K any](data []byte, dec func(*serial.DataInput) (K, error)) (K, bool) {
	in := serial.NewDataInput(data)
	k, err := dec(in)
	return k, err == nil && in.Remaining() == 0
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// checkRawOrder checks raw on keys: a total order (reflexive, antisymmetric,
// transitive) that agrees in sign with decode-then-cmp whenever both keys
// are well-formed and puts every malformed key after every well-formed one.
func checkRawOrder[K any](t *testing.T, raw func(a, b []byte) int,
	dec func(*serial.DataInput) (K, error), cmp func(a, b K) int, keys ...[]byte) {
	t.Helper()
	for _, x := range keys {
		if r := raw(x, x); r != 0 {
			t.Fatalf("compare(%x, itself) = %d", x, r)
		}
	}
	for _, x := range keys {
		kx, okx := wholeKey(x, dec)
		for _, y := range keys {
			ky, oky := wholeKey(y, dec)
			r := sign(raw(x, y))
			if back := sign(raw(y, x)); back != -r {
				t.Fatalf("compare(%x, %x) = %d but compare back = %d", x, y, r, back)
			}
			switch {
			case okx && oky:
				if want := sign(cmp(kx, ky)); r != want {
					t.Fatalf("compare(%x, %x) = %d, decoded %v vs %v = %d", x, y, r, kx, ky, want)
				}
			case okx && r >= 0:
				t.Fatalf("well-formed %x does not sort before malformed %x", x, y)
			}
			for _, z := range keys {
				if r <= 0 && raw(y, z) <= 0 {
					xz := raw(x, z)
					if xz > 0 || xz == 0 && (r < 0 || raw(y, z) < 0) {
						t.Fatalf("not transitive: %x <= %x <= %x but compare(x, z) = %d", x, y, z, xz)
					}
				}
			}
		}
	}
}

// rawSeedKeys are the keys that break naive byte order: negative
// coordinates and indices, names of different lengths ("ab" before "b" in
// name order, after it in length-prefix byte order), and trailing bytes.
func rawSeedKeys(enc func(v VarRef, fields ...int) []byte) [][]byte {
	b := enc(VarRef{Name: "b", Index: -1}, -1, 1)
	return [][]byte{
		b,
		enc(VarRef{Name: "ab", Index: 0}, 0, 1),
		enc(VarRef{Name: "b", Index: 2}, -7, 3),
		append(append([]byte(nil), b...), 0),
	}
}

// addRawSeeds adds each rotation of rawSeedKeys as a triple, in every mode.
func addRawSeeds(f *testing.F, enc func(c *Codec, v VarRef, fields ...int) []byte) {
	for _, mode := range []VarMode{VarNone, VarByIndex, VarByName} {
		c := &Codec{Rank: 2, Mode: mode}
		ks := rawSeedKeys(func(v VarRef, fields ...int) []byte { return enc(c, v, fields...) })
		for i := range ks {
			f.Add(byte(mode), byte(1), ks[i], ks[(i+1)%len(ks)], ks[(i+2)%len(ks)])
		}
		if mode == VarByName {
			// "b" with a two-byte length prefix: a grid key equal to "b",
			// a malformed aggregate or box key.
			long := append([]byte{0x8f, 0x01}, ks[0][1:]...)
			f.Add(byte(mode), byte(1), ks[0], long, ks[1])
		}
	}
}

// FuzzRawCompareGrid: RawCompareGrid is a total order on arbitrary bytes
// that matches CompareGrid on well-formed keys.
func FuzzRawCompareGrid(f *testing.F) {
	addRawSeeds(f, func(c *Codec, v VarRef, fields ...int) []byte {
		return c.GridKeyBytes(GridKey{Var: v, Coord: grid.Coord(fields)})
	})
	f.Fuzz(func(t *testing.T, mode, rank byte, a, b, x []byte) {
		c := &Codec{Rank: 1 + int(rank%4), Mode: fuzzMode(mode)}
		checkRawOrder(t, c.RawCompareGrid, c.DecodeGrid, CompareGrid, a, b, x)
	})
}

// FuzzRawCompareAgg: RawCompareAgg is a total order on arbitrary bytes that
// matches CompareAgg on well-formed keys.
func FuzzRawCompareAgg(f *testing.F) {
	addRawSeeds(f, func(c *Codec, v VarRef, fields ...int) []byte {
		lo := uint64(fields[0] + 8) // curve indices are unsigned
		return c.AggKeyBytes(AggKey{Var: v, Range: sfc.IndexRange{Lo: lo, Hi: lo + uint64(fields[1])}})
	})
	f.Fuzz(func(t *testing.T, mode, _ byte, a, b, x []byte) {
		c := &Codec{Rank: 2, Mode: fuzzMode(mode)}
		checkRawOrder(t, c.RawCompareAgg, c.DecodeAgg, CompareAgg, a, b, x)
	})
}

// FuzzRawCompareBox: RawCompareBox is a total order on arbitrary bytes that
// matches CompareBox on well-formed keys.
func FuzzRawCompareBox(f *testing.F) {
	addRawSeeds(f, func(c *Codec, v VarRef, fields ...int) []byte {
		return c.BoxKeyBytes(BoxKey{Var: v, Box: grid.NewBox(grid.Coord(fields), []int{fields[1], 2})})
	})
	f.Fuzz(func(t *testing.T, mode, rank byte, a, b, x []byte) {
		c := &Codec{Rank: 1 + int(rank%4), Mode: fuzzMode(mode)}
		checkRawOrder(t, c.RawCompareBox, c.DecodeBox, CompareBox, a, b, x)
	})
}
