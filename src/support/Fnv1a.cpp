//===- Fnv1a.cpp - Incremental 64-bit FNV-1a hasher --------------------------===//

#include "support/Fnv1a.h"

#include <cstring>

using namespace charon;

namespace {

constexpr uint64_t Prime = 0x100000001b3ull;

/// Prime^8 mod 2^64: absorbing a zero byte is one multiply by Prime (the
/// xor is a no-op), so a zero word is one multiply by this.
constexpr uint64_t primePow8() {
  uint64_t P = 1;
  for (int I = 0; I < 8; ++I)
    P *= Prime;
  return P;
}
constexpr uint64_t PrimePow8 = primePow8();

} // namespace

Fnv1a &Fnv1a::bytes(const void *Data, size_t Len) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Len; ++I) {
    State ^= P[I];
    State *= Prime;
  }
  return *this;
}

Fnv1a &Fnv1a::u64(uint64_t V) {
  // Same bits as the byte loop; zero words dominate lowered conv matrices.
  if (V == 0) {
    State *= PrimePow8;
    return *this;
  }
  unsigned char Buf[8];
  for (int I = 0; I < 8; ++I)
    Buf[I] = static_cast<unsigned char>(V >> (8 * I));
  return bytes(Buf, 8);
}

Fnv1a &Fnv1a::f64(double V) {
  if (V == 0.0)
    V = 0.0; // collapse -0.0 and +0.0
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V));
  std::memcpy(&Bits, &V, sizeof(Bits));
  return u64(Bits);
}

Fnv1a &Fnv1a::str(std::string_view S) {
  u64(S.size());
  return bytes(S.data(), S.size());
}
