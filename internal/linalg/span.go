package linalg

import (
	"fmt"
	"math/bits"
)

// Span answers exact rank questions about 0/1 vectors, one vector at a time:
// Add reports whether a vector, given by its support (the positions of its
// ones), is linearly independent of the vectors added before it. It runs
// sparse Gaussian elimination over GF(p) with no tolerance to choose.
//
// An integer dependency survives reduction mod p, so a vector that stays
// non-zero mod p is independent over ℚ. The converse fails only when p
// divides a minor, so Span reduces under two primes in lockstep, each with
// its own pivots, and panics if they ever reach different verdicts: a
// wrong answer is never returned silently.
type Span struct {
	mods [2]modSpan
	rank int
}

// NewSpan returns an empty span of vectors of length dim, reduced under
// 2⁶¹−1 and 2⁶²−57.
func NewSpan(dim int) *Span { return NewSpanMod(dim, 1<<61-1, 1<<62-57) }

// NewSpanMod returns an empty span reduced under the primes p and q, each
// below 2⁶³. Tests use small primes to provoke a disagreement.
func NewSpanMod(dim int, p, q uint64) *Span {
	return &Span{mods: [2]modSpan{newModSpan(dim, p), newModSpan(dim, q)}}
}

// Add reduces the 0/1 vector with the given support (distinct positions in
// [0, dim)) against the span and reports whether it was independent; an
// independent vector joins the span.
func (s *Span) Add(support []int) bool {
	a, b := s.mods[0].add(support), s.mods[1].add(support)
	if a != b {
		panic(fmt.Sprintf("linalg: exact rank verdicts disagree between primes %d (independent: %t) and %d (independent: %t): one of them divides a minor",
			s.mods[0].p, a, s.mods[1].p, b))
	}
	if a {
		s.rank++
	}
	return a
}

// Rank returns the number of independent vectors added so far.
func (s *Span) Rank() int { return s.rank }

// modSpan is the elimination state under one prime. Pivot vectors are keyed
// by their leading position and scaled so that the leading entry is 1; the
// rest of each is kept sparse, in ascending position order.
type modSpan struct {
	p       uint64
	isPivot []bool
	pivots  [][]modEntry // pivots[r]: entries after the leading one at r
	work    []uint64     // dense scratch, all zero between calls to add
}

type modEntry struct {
	i int
	v uint64
}

func newModSpan(dim int, p uint64) modSpan {
	return modSpan{p: p, isPivot: make([]bool, dim), pivots: make([][]modEntry, dim), work: make([]uint64, dim)}
}

// add reduces the vector leading position first. A pivot at r touches only
// positions after r, so one scan up to the highest position touched
// eliminates each position at most once: the first non-zero position
// without a pivot makes the vector independent, and reaching the end leaves
// it dependent.
func (m *modSpan) add(support []int) bool {
	lo, hi := len(m.work), -1
	for _, i := range support {
		m.work[i] = 1
		lo, hi = min(lo, i), max(hi, i)
	}
	for r := lo; r <= hi; r++ {
		c := m.work[r]
		if c == 0 {
			continue
		}
		m.work[r] = 0
		if !m.isPivot[r] {
			inv := c // ±1 are their own inverses; 0/1 inputs mostly lead with them
			if c != 1 && c != m.p-1 {
				inv = m.pow(c, m.p-2)
			}
			var rest []modEntry
			for i := r + 1; i <= hi; i++ {
				if v := m.work[i]; v != 0 {
					rest = append(rest, modEntry{i, m.mul(v, inv)})
					m.work[i] = 0
				}
			}
			m.isPivot[r], m.pivots[r] = true, rest
			return true
		}
		for _, e := range m.pivots[r] {
			m.work[e.i] = m.sub(m.work[e.i], m.mul(c, e.v))
		}
		if n := len(m.pivots[r]); n > 0 {
			hi = max(hi, m.pivots[r][n-1].i)
		}
	}
	return false
}

func (m *modSpan) mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return bits.Rem64(hi, lo, m.p)
}

func (m *modSpan) sub(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + (m.p - b)
}

// pow returns a^e mod p; with e = p−2 it is a's inverse (Fermat).
func (m *modSpan) pow(a, e uint64) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = m.mul(r, a)
		}
		a = m.mul(a, a)
	}
	return r
}
