// Package core implements the paper's contribution: the CPPC engine that
// turns a parity-protected write-back cache into a correctable cache.
//
// The engine owns, per register pair, two registers R1 and R2 sized to one
// dirty granule (a 64-bit word for an L1 CPPC, an L1 block for an L2 CPPC):
//
//	R1 = XOR of all data written into the cache
//	R2 = XOR of all dirty data removed from the cache
//	     (overwritten by a store, or written back on eviction)
//
// so that R1 ^ R2 always equals the XOR of all dirty granules currently in
// the cache (Sec. 3). With byte shifting enabled, a granule in rotation
// class c (physical row mod 8) is rotated by c bytes before being folded
// into the registers, which spreads vertically adjacent bits across
// different register bytes and makes spatial multi-bit errors separable
// (Sec. 4). The fold direction follows the paper's worked examples
// (Figs. 5, 7, 8): byte x of a class-c word lands in register byte
// (x - c) mod 8.
package core

import (
	"fmt"

	"cppc/internal/geometry"
)

// Config selects a point in the CPPC design space of Secs. 3.4, 4.6 and
// 4.11.
type Config struct {
	// ParityDegree is the number of interleaved parity bits kept per dirty
	// granule: 1 reproduces the basic CPPC of Sec. 3, 8 the evaluated
	// spatial-MBE-tolerant configuration.
	ParityDegree int

	// RegisterPairs is the number of (R1, R2) pairs: 1, 2, 4 or 8.
	// Rotation classes are distributed contiguously over pairs (classes
	// 0-3 on pair 0 and 4-7 on pair 1 when RegisterPairs is 2, Sec. 4.6).
	RegisterPairs int

	// ByteShifting enables the barrel-shifter rotation of Sec. 4.3. With 8
	// register pairs it is unnecessary (Sec. 4.11) and may be disabled.
	ByteShifting bool

	// SilentStoreElision prices the near-free optimization from the
	// silent-write ECC literature: the read-before-write already reads a
	// dirty granule's verified old value on every store, so detecting a
	// silent store (old == new) costs one compare. The engine counts such
	// stores in Events.SilentStoresElided and performs them like any
	// other, which leaves R1^R2, the check bits and every detection
	// outcome as an eliding cache would; energy.CountElided then prices
	// the skipped data-array write and the two skipped register folds.
	SilentStoreElision bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch c.ParityDegree {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("cppc: parity degree must be 1, 2, 4 or 8; got %d", c.ParityDegree)
	}
	switch c.RegisterPairs {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("cppc: register pairs must be 1, 2, 4 or 8; got %d", c.RegisterPairs)
	}
	return nil
}

// ClassesPerPair is how many rotation classes share one register pair.
func (c Config) ClassesPerPair() int { return geometry.NumClasses / c.RegisterPairs }

// PairOf maps a rotation class to its register pair.
func (c Config) PairOf(class int) int { return class / c.ClassesPerPair() }

// RotationOf is the byte-shift amount applied to a class's data before it
// is folded into the registers.
func (c Config) RotationOf(class int) int {
	if !c.ByteShifting {
		return 0
	}
	return class
}

// DefaultL1Config is the evaluated L1 CPPC (Sec. 6): one register pair,
// eight interleaved parity bits per word, byte shifting.
func DefaultL1Config() Config {
	return Config{ParityDegree: 8, RegisterPairs: 1, ByteShifting: true}
}

// DefaultL2Config is the evaluated L2 CPPC (Sec. 6): the L1
// configuration, since the engine sizes its register pair and check bits
// to the cache's dirty granule — here one L1 block.
func DefaultL2Config() Config { return DefaultL1Config() }

// SilentL1Config is DefaultL1Config with silent stores counted for
// elision pricing (the cppc-silent ablation).
func SilentL1Config() Config {
	c := DefaultL1Config()
	c.SilentStoreElision = true
	return c
}

// SilentL2Config is DefaultL2Config with silent stores counted for
// elision pricing.
func SilentL2Config() Config {
	c := DefaultL2Config()
	c.SilentStoreElision = true
	return c
}

// FullCorrectionConfig is the Sec. 4.11 design: eight register pairs, no
// byte shifting, all spatial MBEs within 8x8 correctable and temporal
// aliasing eliminated.
func FullCorrectionConfig() Config {
	return Config{ParityDegree: 8, RegisterPairs: 8, ByteShifting: false}
}
