//===- JsonLine.h - Minimal JSON-lines object parser/printer ------*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON dialect every Charon wire protocol speaks: a single flat
/// object per line whose values are strings, numbers, booleans, or arrays
/// of numbers. Hand-rolled because the protocols need nothing more and the
/// project takes no external dependencies. Shared by the service batch
/// protocol (service/RequestIo.h) and the fleet control channel
/// (fleet/FleetProtocol.h) so both sides agree on escaping and number
/// round-tripping.
///
/// Numbers follow the number policy of support/TextCodec.h: they print
/// with %.17g, which round-trips every finite double exactly, and parse
/// only as finite doubles ("nan", "inf" and overflowing literals are syntax
/// errors). 64-bit digests do NOT fit in a double, so protocols carry them
/// as decimal strings (formatU64/parseU64), and integer fields go through
/// toInteger so an out-of-range value is rejected rather than cast.
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_SUPPORT_JSONLINE_H
#define CHARON_SUPPORT_JSONLINE_H

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace charon {
namespace json {

/// One parsed value of the supported subset.
struct Value {
  enum Kind { Str, Num, Bool, NumArray } K = Num;
  std::string S;
  double N = 0.0;
  bool B = false;
  std::vector<double> A;
};

/// A parsed line: one flat object, keys in sorted order.
using Object = std::map<std::string, Value>;

/// Parses \p Line as one flat object. Returns false on any syntax error
/// (and stores a human-readable reason in \p Error when non-null).
/// Duplicate keys, nested objects, trailing characters, and unsupported
/// escapes are all errors so typos fail loudly.
bool parseObjectLine(const std::string &Line, Object &Out,
                     std::string *Error = nullptr);

/// Builds one flat object key by key, escaping strings and printing
/// numbers as %.17g: `ObjectWriter().str("cmd", "load").num("label", 3)
/// .done()` renders `{"cmd":"load","label":3}`.
class ObjectWriter {
public:
  ObjectWriter &str(const char *Key, const std::string &S);
  ObjectWriter &num(const char *Key, double X);
  ObjectWriter &nums(const char *Key, const double *A, size_t N);
  ObjectWriter &nums(const char *Key, const std::vector<double> &A) {
    return nums(Key, A.data(), A.size());
  }
  ObjectWriter &flag(const char *Key, bool B);
  /// Closes the object and returns it.
  std::string done();

private:
  void key(const char *Key);
  std::string Out;
};

/// Decimal rendering of a 64-bit value (digests don't fit in a double, so
/// the protocols quote them as strings).
std::string formatU64(uint64_t V);

/// Parses the decimal rendering back; false on non-numeric or overflowing
/// input.
bool parseU64(const std::string &S, uint64_t &Out);

/// Converts a parsed number to \p IntT when it is integral and \p IntT
/// holds it; false otherwise (a plain cast would be undefined behavior).
template <class IntT> bool toInteger(double X, IntT &Out) {
  static_assert(std::is_integral_v<IntT>);
  // 2^digits is exact in a double and one past IntT's maximum.
  double Limit = std::ldexp(1.0, std::numeric_limits<IntT>::digits);
  double Min = std::is_signed_v<IntT> ? -Limit : 0.0;
  if (!(X >= Min && X < Limit) || std::trunc(X) != X)
    return false;
  Out = static_cast<IntT>(X);
  return true;
}

} // namespace json
} // namespace charon

#endif // CHARON_SUPPORT_JSONLINE_H
