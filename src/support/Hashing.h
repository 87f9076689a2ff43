//===- support/Hashing.h - Stable 128-bit content digests ------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stable, process-independent 128-bit content digest: two FNV-1a lanes
/// finalized with splitmix64. The function-definition cache addresses its
/// entries by this digest of their key text. The byte stream is hashed
/// as-is, so the digest is byte-order independent by construction.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_SUPPORT_HASHING_H
#define IMPACT_SUPPORT_HASHING_H

#include <cstdint>
#include <string_view>

namespace impact {

inline constexpr uint64_t kFnvOffsetBasis64 = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime64 = 0x100000001b3ull;

/// splitmix64's finalizer: a full-avalanche bijection, so the weakly
/// mixing FNV lanes below end up with every input bit affecting every
/// output bit.
inline uint64_t avalanche64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X;
}

/// A 128-bit content digest (two independent 64-bit lanes). Collisions
/// between distinct inputs are what content-addressing bets against, so
/// both lanes run the full input with different offsets and are finalized
/// and cross-mixed.
struct Hash128 {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  friend bool operator==(const Hash128 &, const Hash128 &) = default;
};

inline Hash128 hash128(std::string_view Data) {
  // Lane 1: plain FNV-1a. Lane 2: FNV-1a from a different basis with the
  // byte rotated, so the lanes never agree on how they digest a byte.
  uint64_t A = kFnvOffsetBasis64;
  uint64_t B = 0x9e3779b97f4a7c15ull; // golden-ratio basis
  for (unsigned char C : Data) {
    A = (A ^ C) * kFnvPrime64;
    B = (B ^ (static_cast<uint64_t>(C) << 7 | C >> 1)) * kFnvPrime64;
  }
  uint64_t Len = Data.size();
  Hash128 H;
  H.Hi = avalanche64(A ^ avalanche64(B + Len));
  H.Lo = avalanche64(B ^ avalanche64(A + 0x2545f4914f6cdd1dull + Len));
  return H;
}

} // namespace impact

#endif // IMPACT_SUPPORT_HASHING_H
