package cluster

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/linalg"
)

// bytesToVec reinterprets fuzz bytes as a float64 vector (8 bytes per
// coordinate, little endian), capped so hostile inputs stay cheap.
func bytesToVec(data []byte) []float64 {
	n := len(data) / 8
	if n > 64 {
		n = 64
	}
	if n == 0 {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return v
}

// FuzzSignature drives the quantized-signature hash with arbitrary
// bit patterns — including NaNs, infinities, subnormals and values at
// the int64 quantization boundary — and checks the invariants the
// bucketing layer depends on: determinism, independence from slice
// identity, and cell consistency (a vector quantized into the same
// cells hashes identically).
func FuzzSignature(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, len(vals)*8)
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(0, 0, 0))
	f.Add(seed(1.5, -2.25, 1e300))
	f.Add(seed(math.NaN(), math.Inf(1), math.Inf(-1)))
	f.Add(seed(math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64))
	f.Add(seed(1e18, -1e18, 0.4999999, 0.5000001))
	f.Add([]byte{1, 2, 3}) // under one coordinate: empty vector
	f.Fuzz(func(t *testing.T, data []byte) {
		v := bytesToVec(data)
		const invCell = 2.0
		h1 := Signature(v, invCell)
		h2 := Signature(v, invCell)
		if h1 != h2 {
			t.Fatalf("signature not deterministic: %x vs %x", h1, h2)
		}
		w := make([]float64, len(v))
		copy(w, v)
		if Signature(w, invCell) != h1 {
			t.Fatal("signature depends on slice identity")
		}
		// Cell consistency: nudging every finite coordinate to the lower
		// edge of its cell must not change the signature.
		edge := make([]float64, len(v))
		same := true
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				edge[i] = x
				continue
			}
			c := math.Floor(x * invCell)
			e := c / invCell
			if math.Floor(e*invCell) != c {
				// Rounding pushed the reconstructed edge into the
				// neighboring cell (possible at extreme magnitudes);
				// skip the consistency check for this input.
				same = false
				break
			}
			edge[i] = e
		}
		if same && Signature(edge, invCell) != h1 {
			t.Fatalf("same-cell vectors hash differently: %v vs %v", v, edge)
		}
	})
}

// FuzzLeaderMatchesLinear holds the indexed Leader to the frozen linear
// scan on fuzzer-built matrices. With coarse set, each byte is one
// coordinate on a grid of quarter steps, so equal first coordinates,
// duplicate rows and exact distance ties are common; otherwise every 8
// bytes are one float64 bit pattern, NaNs, infinities and -0 included.
func FuzzLeaderMatchesLinear(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, len(vals)*8)
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
		}
		return b
	}
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	f.Add(seed(0, 2, 1), uint8(1), false, 1.0)
	f.Add(seed(nan, 0, 1, 0, nan, 0, 1, 0), uint8(2), false, 2.0)
	f.Add(seed(0, nan, 0, 1, 0, nan, 0, 0), uint8(2), false, 1.0)
	f.Add(seed(inf, 0, -inf, 0, inf, 0, 0, inf, 0, -inf, 5, 5), uint8(2), false, 0.5)
	f.Add(seed(negZero, 1, 0, 1, negZero, negZero, 0, 0), uint8(2), false, 0.25)
	f.Add(seed(1, 2, 3, 1, 2, 3, 1, 2, 3, 0, 2, 3), uint8(3), false, 1.0)
	f.Add(seed(0, 0, 2, 0, 1, 0, 1, 1), uint8(2), false, inf)
	f.Add(seed(0, 0, 2, 0, 1, 0), uint8(2), false, nan)
	f.Add([]byte{0, 8, 4, 4, 8, 0, 4, 4, 4, 2, 6, 4, 4, 4, 0, 0, 255, 1}, uint8(3), true, 0.5)
	f.Add([]byte{0, 8, 4, 0, 8, 4, 12, 0, 4, 4}, uint8(1), true, 1.0)
	f.Fuzz(func(t *testing.T, data []byte, colsRaw uint8, coarse bool, threshold float64) {
		cols := int(colsRaw%4) + 1
		var vals []float64
		if coarse {
			vals = make([]float64, len(data))
			for i, b := range data {
				vals[i] = float64(int8(b)) / 4
			}
		} else {
			for i := 0; i+8 <= len(data); i += 8 {
				vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
			}
		}
		if len(vals) > 512 {
			vals = vals[:512] // keep the quadratic reference cheap
		}
		rows := len(vals) / cols
		if rows == 0 {
			return
		}
		x := linalg.NewMatrix(rows, cols)
		copy(x.Data, vals)
		if d := diffLinear(x, threshold); d != "" {
			t.Fatalf("%dx%d matrix, threshold %v: %s", rows, cols, threshold, d)
		}
	})
}
