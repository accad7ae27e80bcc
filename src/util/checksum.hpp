// The repo-wide 64-bit mixing permutation and the seeded content checksum
// built on it. Used by the vector-file integrity table, the checkpoint
// trailer, the result-cache key and the fault schedules' derived seeds.
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

/// Seeded 64-bit content checksum over an integrity block: one mix64 round
/// per 8-byte little-endian word, tail zero-padded and salted with the
/// length so blocks of different sizes never collide trivially. Seeding
/// makes checksums file-specific: a record replayed from another file (or
/// stripe) with a self-consistent checksum still fails verification.
inline std::uint64_t checksum64(std::uint64_t seed, const void* data,
                                std::size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t h =
      seed ^ (0x9e3779b97f4a7c15ull + (static_cast<std::uint64_t>(bytes) << 1));
  std::size_t i = 0;
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
