package linalg

import (
	"math/big"
	"testing"
)

// TestSpanDefaultPrimes: soundness rests on both moduli being prime.
func TestSpanDefaultPrimes(t *testing.T) {
	for _, m := range NewSpan(1).mods {
		if !new(big.Int).SetUint64(m.p).ProbablyPrime(20) {
			t.Fatalf("%d is not prime", m.p)
		}
	}
}
