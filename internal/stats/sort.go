package stats

import (
	"math"
	"slices"
)

// radixMin is the shortest sample sortFloats radix-sorts. Below it the fixed
// cost of eight 256-entry histograms outweighs slices.Sort's comparisons: on
// one x86-64 core the two cross between 512 and 2048 values.
const radixMin = 1024

// sortFloats sorts xs ascending, in the order slices.Sort gives: equal
// values are bit-identical except for ±0, which compare equal. It is an LSD
// radix sort over one byte per pass of order-preserving uint64 keys (see
// floatKey); a pass in which every key has the same byte is skipped. Short
// samples and samples holding a NaN, which has no place in the key order,
// go to slices.Sort.
func sortFloats(xs []float64) {
	n := len(xs)
	if n < radixMin {
		slices.Sort(xs)
		return
	}
	var counts [8][256]int
	for _, x := range xs {
		if x != x {
			slices.Sort(xs)
			return
		}
		k := floatKey(x)
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	// The keys move back and forth between buf and xs; xs holds them decoded,
	// so it only ever holds values of the input.
	buf := make([]uint64, n)
	inBuf := false
	k0 := floatKey(xs[0]) // every key shares a byte iff k0's byte counts n
	for d := range counts {
		c := &counts[d]
		shift := 8 * d
		if c[byte(k0>>shift)] == n {
			continue
		}
		var off [256]int
		sum := 0
		for b, m := range c {
			off[b] = sum
			sum += m
		}
		if inBuf {
			for _, k := range buf {
				b := byte(k >> shift)
				xs[off[b]] = floatFromKey(k)
				off[b]++
			}
		} else {
			for _, x := range xs {
				k := floatKey(x)
				b := byte(k >> shift)
				buf[off[b]] = k
				off[b]++
			}
		}
		inBuf = !inBuf
	}
	if inBuf {
		for i, k := range buf {
			xs[i] = floatFromKey(k)
		}
	}
}

// floatKey maps a non-NaN float64 to a uint64 whose unsigned order is the
// float order, with -0 just below +0: a non-negative value gets its sign bit
// set, a negative one has every bit flipped.
func floatKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// floatFromKey inverts floatKey.
func floatFromKey(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}
