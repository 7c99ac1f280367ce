package ar

// Seed-splitting for generation. A generation run owns one user seed; its
// samples are cut into fixed blocks (core's blockRows), and each block's
// sampling lanes need their own independent rng streams, reconstructible
// from coordinates alone so any block — and so any shard, a range of
// blocks — can be regenerated bit-identically without replaying the
// others, by any worker.
//
// Two levels compose:
//
//   - SplitSeed(seed, block) derives a block's base seed through a
//     SplitMix64 finalizer, so adjacent block indices land on uncorrelated
//     points of the seed space (plain seed+block would hand math/rand
//     near-identical source states).
//   - LaneSeed(base, lane) spaces the per-lane ancestral-sampling streams
//     inside a block by a fixed prime stride.
//
// Together they make a run's samples a pure function of (seed, batch,
// sample count): lane l of block b draws from LaneSeed(SplitSeed(seed, b), l).

// laneStride separates per-lane rng streams derived from one base seed.
// The value is pinned by golden determinism tests; changing it changes
// every generated database.
const laneStride = 7919

// SplitSeed derives the base rng seed of stream index i (a generation
// block, or any other independent stream) from the run seed using the
// SplitMix64 finalizer. i = -1 is reserved for callers that want the run
// seed itself mixed (not used by generation).
func SplitSeed(seed int64, i int) int64 {
	z := uint64(seed) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// LaneSeed derives lane's rng stream seed from a base seed (in generation,
// SplitSeed(seed, block)).
func LaneSeed(base int64, lane int) int64 {
	return base + int64(lane)*laneStride
}
