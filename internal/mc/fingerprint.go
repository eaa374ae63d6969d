package mc

import (
	"math/bits"

	"stopwatchsim/internal/nsa"
)

// fingerprint is the visited-set key of a product state: two 64-bit hash
// lanes computed word by word over the location vector, the clocks, the
// variables, the model time and the monitor vectors. Both lanes run the
// same multiply-fold step, h = hi ^ lo of (h ^ w) × K, with their own fixed
// seed and odd multiplier K: the constants are part of the format, with no
// per-process seed, so a run's visited set and its counts repeat exactly.
// Treating the lanes as independent random functions, a search over n
// distinct states merges two of them with probability about n²/2¹²⁹.
type fingerprint [2]uint64

const (
	fpSeed0 = 0x243f6a8885a308d3 // the first 128 fractional bits of π
	fpSeed1 = 0x13198a2e03707344
	fpMul0  = 0xa0761d6478bd642f // wyhash's primes
	fpMul1  = 0xe7037ed1a0b428db
)

// fpMix folds one word into a lane.
func fpMix(h, w, k uint64) uint64 {
	hi, lo := bits.Mul64(h^w, k)
	return hi ^ lo
}

// fingerprintOf returns the fingerprint of the product state (s, ms). Each
// monitor vector is preceded by its length, so vectors cannot trade words.
func fingerprintOf(s *nsa.State, ms [][]int64) fingerprint {
	a, b := uint64(fpSeed0), uint64(fpSeed1)
	for _, l := range s.Locs {
		a, b = fpMix(a, uint64(l), fpMul0), fpMix(b, uint64(l), fpMul1)
	}
	for _, c := range s.Clocks {
		a, b = fpMix(a, uint64(c), fpMul0), fpMix(b, uint64(c), fpMul1)
	}
	for _, v := range s.Vars {
		a, b = fpMix(a, uint64(v), fpMul0), fpMix(b, uint64(v), fpMul1)
	}
	a, b = fpMix(a, uint64(s.Time), fpMul0), fpMix(b, uint64(s.Time), fpMul1)
	for _, m := range ms {
		a, b = fpMix(a, uint64(len(m)), fpMul0), fpMix(b, uint64(len(m)), fpMul1)
		for _, v := range m {
			a, b = fpMix(a, uint64(v), fpMul0), fpMix(b, uint64(v), fpMul1)
		}
	}
	return fingerprint{a, b}
}
