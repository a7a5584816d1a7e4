package linalg

import (
	"math/rand/v2"
	"testing"
)

// benchSize matches the Gram-system scale of a mid-size topology
// (nc ≈ a few hundred virtual links).
const benchSize = 256

func benchMat(r, c int) *Dense {
	rng := rand.New(rand.NewPCG(100, 200))
	return randMat(rng, r, c)
}

func BenchmarkMulVecTo(b *testing.B) {
	m := benchMat(benchSize, benchSize)
	x := make([]float64, benchSize)
	dst := make([]float64, benchSize)
	for i := range x {
		x[i] = float64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVecTo(dst, x)
	}
}

func BenchmarkTMulVecTo(b *testing.B) {
	m := benchMat(benchSize, benchSize)
	x := make([]float64, benchSize)
	dst := make([]float64, benchSize)
	for i := range x {
		x[i] = float64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TMulVecTo(dst, x)
	}
}

func BenchmarkDotUnrolled(b *testing.B) {
	x := make([]float64, 4096)
	y := make([]float64, 4096)
	for i := range x {
		x[i] = float64(i % 17)
		y[i] = float64(i % 13)
	}
	b.ReportAllocs()
	b.SetBytes(4096 * 8 * 2)
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += DotUnrolled(x, y)
	}
	_ = s
}

func BenchmarkBlockedMul(b *testing.B) {
	x := benchMat(benchSize, benchSize)
	y := benchMat(benchSize, benchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Mul(y)
	}
}

func BenchmarkBlockedTranspose(b *testing.B) {
	m := benchMat(1024, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.T()
	}
}

func BenchmarkCholeskySolveTo(b *testing.B) {
	a := benchMat(benchSize*2, benchSize)
	g := a.T().Mul(a)
	ch, err := NewCholesky(g)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, benchSize)
	dst := make([]float64, benchSize)
	for i := range rhs {
		rhs[i] = float64(i)
	}
	ch.SolveTo(dst, rhs) // warm the lazy workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.SolveTo(dst, rhs)
	}
}

// BenchmarkQRFactorize times NewQR on a Gaussian matrix, on the 600×600
// 0/1 R* of a 600-leaf tree (the Phase-2 solve behind every inference on a
// 600-path component) and on a 325×39 0/1 augmented matrix (the dense
// Phase-1 solve of one 25-path component). The last leg factors that
// augmented matrix stored by its distinct rows, as Phase 1 does.
func BenchmarkQRFactorize(b *testing.B) {
	rng := rand.New(rand.NewPCG(100, 300))
	rstar := treeRStar(rng, 220, 600)
	aug := treeAugmented(rng, 14, 25)
	for _, c := range []struct {
		name string
		a    *Dense
	}{
		{"gaussian512x256", benchMat(benchSize*2, benchSize)},
		{"treeRStar600", rstar},
		{"augmented325x39", aug},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = NewQR(c.a)
			}
		})
	}
	stored, of := foldRepeated(aug)
	b.Run("augmented325x39repeated", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = factorQR(stored.Clone(), of)
		}
	})
}
