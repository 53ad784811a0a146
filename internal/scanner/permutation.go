// Package scanner implements the measurement instrument of the study:
// a zmap-style randomized port scan over the simulated IPv4 universe, a
// zgrab2-style application-layer grab module for OPC UA, and the weekly
// campaign orchestration with follow-up targets (endpoints on other
// hosts/ports, discovery-server references).
package scanner

import (
	"math/bits"

	"repro/internal/simnet"
)

// fnvMix folds the eight little-endian bytes of v into an FNV-1a state
// (parameters shared with the noise model via simnet; the Feistel round
// below inlines the hash so building the round table allocates no
// hasher, and TestPermutationRoundMatchesFNV pins the arithmetic
// against the stdlib implementation byte for byte).
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * simnet.FNVPrime64
		v >>= 8
	}
	return h
}

// Permutation is a bijection over [0, N) used to visit scan targets in a
// pseudorandom order, like zmap's cyclic-group iteration: probes spread
// across the whole address space so no network sees a burst
// (Appendix A.2 "rely on zmap's address randomization").
//
// The implementation is a 4-round Feistel network over the smallest even
// bit-width covering N, with cycle-walking to stay inside [0, N).
type Permutation struct {
	n        uint64
	halfBits uint
	halfMask uint64
	seed     uint64
	// table[r<<halfBits|h] = round(h, r): the four round functions
	// precomputed over every half-width input, so a Feistel pass is
	// four lookups instead of four 17-byte hashes. halfBits <= 16 for
	// n <= 2^32, so every round output fits a uint16.
	table []uint16
}

// maxPermutationSize is the largest N a Permutation covers: a 32-bit
// Feistel domain, whose 16-bit halves bound the round table at
// 4*2^16 entries (512 KiB).
const maxPermutationSize = 1 << 32

// NewPermutation builds a permutation of [0, n) from a seed. n must be
// at most 2^32 (every IPv4 address); larger n panics, since the round
// table's uint16 entries cannot hold wider halves. Construction costs
// 4*2^halfBits round evaluations — 16 KiB of table for a 2.6M-address
// universe, 512 KiB at n = 2^32.
func NewPermutation(n uint64, seed uint64) *Permutation {
	if n == 0 {
		return &Permutation{n: 0}
	}
	if n > maxPermutationSize {
		panic("scanner: permutation size exceeds 2^32")
	}
	width := uint(bits.Len64(n - 1))
	if width == 0 {
		width = 1
	}
	if width%2 == 1 {
		width++
	}
	p := &Permutation{
		n:        n,
		halfBits: width / 2,
		halfMask: (1 << (width / 2)) - 1,
		seed:     seed,
	}
	p.table = make([]uint16, 4<<p.halfBits)
	for r := uint(0); r < 4; r++ {
		for h := uint64(0); h <= p.halfMask; h++ {
			p.table[uint64(r)<<p.halfBits|h] = uint16(p.round(h, r))
		}
	}
	return p
}

// round hashes (half, seed, round) with an inlined FNV-1a over the same
// 17 bytes the previous hash/fnv-based implementation fed the hasher:
// 8 LE bytes of half, 8 LE bytes of the seed, then the round byte. The
// output is bit-identical, so permutations are stable across the
// rewrite. NewPermutation tabulates it; the probe path never calls it.
func (p *Permutation) round(half uint64, round uint) uint64 {
	h := fnvMix(fnvMix(uint64(simnet.FNVOffset64), half), p.seed)
	h = (h ^ uint64(byte(round))) * simnet.FNVPrime64
	return h & p.halfMask
}

//studyvet:hotpath — At's inner loop body
func (p *Permutation) feistel(x uint64) uint64 {
	l := x >> p.halfBits
	r := x & p.halfMask
	for round := uint64(0); round < 4; round++ {
		l, r = r, l^uint64(p.table[round<<p.halfBits|r])
	}
	return l<<p.halfBits | r
}

// At maps index i to its permuted position. i must be < N. At performs
// no heap allocations (the port-scan probe path relies on this;
// TestPermutationAtAllocFree gates it).
//
//studyvet:hotpath — called once per probed address (4B calls in a full scan)
func (p *Permutation) At(i uint64) uint64 {
	if p.n == 0 {
		return 0
	}
	x := p.feistel(i)
	// Cycle-walk until the value lands inside [0, n). Termination is
	// guaranteed because feistel is a bijection on the covering domain.
	for x >= p.n {
		x = p.feistel(x)
	}
	return x
}

// Size returns N.
func (p *Permutation) Size() uint64 { return p.n }
