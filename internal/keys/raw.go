package keys

import (
	"bytes"
	"encoding/binary"
	"math"

	"scikey/internal/binutil"
	"scikey/internal/serial"
)

// The raw comparators below are the engine's sort, merge and grouping
// comparators, Hadoop's RawComparator: keys are serialized as soon as a
// mapper emits them, so every compare walks two byte forms and decodes
// nothing. None of them allocates.
//
// A well-formed key sorts in its decoded order (CompareGrid, CompareAgg,
// CompareBox). The walk reads the variable section first:
//
//   - VarNone: empty, so it never decides.
//   - VarByIndex: a big-endian int32, compared signed.
//   - VarByName: a VInt length, then the name bytes, compared with
//     bytes.Compare. The length is parsed, not compared: comparing the
//     prefix bytes would put "b" (length 1) before "ab" (length 2).
//
// Then the fixed-width big-endian fields, in encoding order. Coordinates,
// box corners and box sizes are int32s compared signed, because
// two's-complement bytes put -1 after 0; aggregate Lo and Hi are uint64s,
// whose bytes already compare in numeric order.
//
// A key is well-formed exactly when the matching DecodeGrid, DecodeAgg or
// DecodeBox accepts it and consumes every byte. Malformed keys sort after
// every well-formed key, and among themselves by serial.CompareBytes, so
// each comparator is a total order on all byte strings.

// RawCompareGrid compares two encoded GridKeys in CompareGrid order.
func (c *Codec) RawCompareGrid(a, b []byte) int {
	ao, ae, aok := c.varSpan(a, false)
	bo, be, bok := c.varSpan(b, false)
	aok = aok && len(a)-ae == 4*c.Rank
	bok = bok && len(b)-be == 4*c.Rank
	if !aok || !bok {
		return compareMalformed(a, b, aok, bok)
	}
	if r := c.compareRawVar(a[ao:ae], b[bo:be]); r != 0 {
		return r
	}
	return compareI32s(a[ae:], b[be:])
}

// RawCompareAgg compares two encoded AggKeys in CompareAgg order.
func (c *Codec) RawCompareAgg(a, b []byte) int {
	ao, ae, aok := c.aggSpan(a)
	bo, be, bok := c.aggSpan(b)
	if !aok || !bok {
		return compareMalformed(a, b, aok, bok)
	}
	if r := c.compareRawVar(a[ao:ae], b[bo:be]); r != 0 {
		return r
	}
	return bytes.Compare(a[ae:], b[be:])
}

// RawCompareBox compares two encoded BoxKeys in CompareBox order.
func (c *Codec) RawCompareBox(a, b []byte) int {
	ao, ae, aok := c.boxSpan(a)
	bo, be, bok := c.boxSpan(b)
	if !aok || !bok {
		return compareMalformed(a, b, aok, bok)
	}
	if r := c.compareRawVar(a[ao:ae], b[bo:be]); r != 0 {
		return r
	}
	return compareI32s(a[ae:], b[be:])
}

// varSpan locates the variable section at the front of key: the bytes that
// decide its order are key[off:end] (the index, or the name without its
// length), and the fixed-width fields start at end. ok is false when
// readVar would fail, or, with canonical, when readKeyVar would.
func (c *Codec) varSpan(key []byte, canonical bool) (off, end int, ok bool) {
	switch c.Mode {
	case VarNone:
		return 0, 0, true
	case VarByIndex:
		return 0, 4, len(key) >= 4
	case VarByName:
		if len(key) > 0 && key[0] < 0x80 { // one-byte VInt: length 0..127
			n := int(key[0])
			return 1, 1 + n, n < len(key)
		}
		n, m, err := binutil.DecodeVLong(key)
		if err != nil || n < 0 || n > math.MaxInt32 || n > int64(len(key)-m) ||
			canonical && m != binutil.VLongLen(n) {
			return 0, 0, false
		}
		return m, m + int(n), true
	}
	return 0, 0, false
}

// aggSpan is varSpan for an AggKey, which must also hold exactly Lo and Hi
// with Lo < Hi.
func (c *Codec) aggSpan(key []byte) (off, end int, ok bool) {
	off, end, ok = c.varSpan(key, true)
	ok = ok && len(key)-end == 16 &&
		binary.BigEndian.Uint64(key[end:]) < binary.BigEndian.Uint64(key[end+8:])
	return off, end, ok
}

// boxSpan is varSpan for a BoxKey, which must also hold exactly Rank
// corner and Rank size fields, every size positive.
func (c *Codec) boxSpan(key []byte) (off, end int, ok bool) {
	off, end, ok = c.varSpan(key, true)
	if !ok || len(key)-end != 8*c.Rank {
		return 0, 0, false
	}
	for i := end + 4*c.Rank; i < len(key); i += 4 {
		if int32(binary.BigEndian.Uint32(key[i:])) <= 0 {
			return 0, 0, false
		}
	}
	return off, end, true
}

// compareRawVar compares two variable sections located by varSpan.
func (c *Codec) compareRawVar(a, b []byte) int {
	if c.Mode == VarByIndex {
		return compareI32s(a, b)
	}
	return bytes.Compare(a, b)
}

// compareI32s compares equal-length runs of big-endian int32s, signed.
func compareI32s(a, b []byte) int {
	for i := 0; i+4 <= len(a); i += 4 {
		x := int32(binary.BigEndian.Uint32(a[i:]))
		y := int32(binary.BigEndian.Uint32(b[i:]))
		if x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return 0
}

// compareMalformed orders a pair of which at least one key is malformed:
// after every well-formed key, and among themselves by raw bytes.
func compareMalformed(a, b []byte, aok, bok bool) int {
	switch {
	case aok:
		return -1
	case bok:
		return 1
	}
	return serial.CompareBytes(a, b)
}
