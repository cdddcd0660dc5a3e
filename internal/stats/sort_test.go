package stats

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// checkSortFloats sorts a copy of xs with sortFloats and one with
// slices.Sort and requires them equal element by element (NaNs where
// slices.Sort puts them) and holding the same number of -0s.
func checkSortFloats(t *testing.T, xs []float64) {
	t.Helper()
	got, want := slices.Clone(xs), slices.Clone(xs)
	sortFloats(got)
	slices.Sort(want)
	negZeros := func(s []float64) (n int) {
		for _, v := range s {
			if v == 0 && math.Signbit(v) {
				n++
			}
		}
		return n
	}
	for i := range want {
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("n=%d: element %d is %v, slices.Sort gives %v", len(xs), i, got[i], want[i])
		}
	}
	if g, w := negZeros(got), negZeros(want); g != w {
		t.Fatalf("n=%d: %d negative zeros after the sort, %d before", len(xs), g, w)
	}
}

// sortEdgeValues are the values whose keys sit at the edges of floatKey's
// order: both zeros, both infinities, subnormals and the extremes.
var sortEdgeValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, math.SmallestNonzeroFloat64 * 3, -2.2250738585072009e-308,
	math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.5, -0.5,
}

func TestSortFloatsMatchesSlicesSort(t *testing.T) {
	r := newRand(11)
	for _, n := range []int{0, 1, 2, radixMin - 1, radixMin, radixMin + 1, 5000} {
		mixed := make([]float64, n)
		for i := range mixed {
			switch i % 4 {
			case 0:
				mixed[i] = sortEdgeValues[r.IntN(len(sortEdgeValues))]
			case 1:
				mixed[i] = r.NormFloat64() * 1e6
			case 2:
				mixed[i] = -r.Float64()
			default:
				mixed[i] = math.Float64frombits(r.Uint64() &^ (0x7ff << 52)) // subnormal or zero
			}
		}
		checkSortFloats(t, mixed)
		// Durations of one magnitude: the top bytes agree, so their passes
		// are skipped.
		narrow := make([]float64, n)
		for i := range narrow {
			narrow[i] = 1000 + r.Float64()
		}
		checkSortFloats(t, narrow)
		constant := make([]float64, n)
		for i := range constant {
			constant[i] = 42
		}
		checkSortFloats(t, constant)
		if n > 0 {
			// One key apart from the rest in every byte but the top: no
			// pass may be skipped.
			oneOff := slices.Clone(constant)
			oneOff[n-1] = math.Nextafter(42, 0)
			checkSortFloats(t, oneOff)
		}
		if n > 0 {
			withNaN := slices.Clone(mixed)
			withNaN[n/2] = math.NaN()
			checkSortFloats(t, withNaN)
		}
	}
}

// FuzzSortFloats checks sortFloats against slices.Sort on samples built
// from bytes: the first two give the length (up to 2047, spanning radixMin),
// every further eight are one float64's bits, cycled to fill the length.
func FuzzSortFloats(f *testing.F) {
	seed := func(n uint16, vs ...float64) []byte {
		b := binary.LittleEndian.AppendUint16(nil, n)
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(radixMin, sortEdgeValues...))
	f.Add(seed(radixMin-1, sortEdgeValues...))
	f.Add(seed(1500, 3, -7.5, 1e-310, math.NaN()))
	f.Add(seed(2000, 86400, 3600.25, 60, 0.001))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		n := int(binary.LittleEndian.Uint16(data)) % 2048
		var pool []float64
		for b := data[2:]; len(b) >= 8; b = b[8:] {
			pool = append(pool, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = pool[i%len(pool)]
		}
		checkSortFloats(t, xs)
	})
}
