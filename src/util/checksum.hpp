// The repo-wide 64-bit mixing permutation and the seeded content checksum
// built on it. Used by the vector-file integrity table, the paged store's
// blocks, fsck, the checkpoint trailer, the result-cache key, the Phylo2Vec
// taxa digest and the fault schedules' derived seeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace plfoc {

/// The splitmix64 finalizer — the repo-wide mixing permutation (util/rng.cpp
/// and ooc/faults.cpp use the same constants).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Independent mix64 chains checksum64 runs side by side.
inline constexpr std::size_t kChecksumLanes = 8;

/// Seeded 64-bit content checksum over an integrity block
/// (docs/file-formats.md, "Checksum"). The block's 8-byte little-endian words
/// are dealt round-robin onto kChecksumLanes mix64 chains — lane l absorbs
/// words l, l + 8, l + 16, ... — so the chains' multiplies overlap instead of
/// each word waiting on the previous one. Every lane starts from the same
/// seed-and-length salt plus its lane index; at the end the lanes fold into
/// one value in lane order through mix64. The whole words past the last full
/// 64-byte stripe, then the zero-padded tail salted with the length, are
/// absorbed serially after the fold. mix64 is a bijection, so a change to any
/// one word always changes the result, and a word's lane and its place in
/// that lane bind its position. The length salt keeps blocks of different
/// sizes from colliding trivially; the seed makes checksums file-specific: a
/// record replayed from another file (or stripe) with a self-consistent
/// checksum still fails verification.
inline std::uint64_t checksum64(std::uint64_t seed, const void* data,
                                std::size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const std::uint64_t salt =
      seed ^ (0x9e3779b97f4a7c15ull + (static_cast<std::uint64_t>(bytes) << 1));
  std::uint64_t lanes[kChecksumLanes];
  for (std::size_t l = 0; l < kChecksumLanes; ++l) lanes[l] = salt + l;
  std::size_t i = 0;
  for (; i + 8 * kChecksumLanes <= bytes; i += 8 * kChecksumLanes) {
    // Unrolled so the lanes live in registers, not in a stack array.
#pragma GCC unroll 8
    for (std::size_t l = 0; l < kChecksumLanes; ++l) {
      std::uint64_t word;
      std::memcpy(&word, p + i + 8 * l, 8);
      lanes[l] = mix64(lanes[l] ^ word);
    }
  }
  std::uint64_t h = salt;
  for (std::size_t l = 0; l < kChecksumLanes; ++l) h = mix64(h ^ lanes[l]);
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, p + i, 8);
    h = mix64(h ^ word);
  }
  if (i < bytes) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, bytes - i);
    h = mix64(h ^ word ^ static_cast<std::uint64_t>(bytes));
  }
  return h;
}

}  // namespace plfoc
