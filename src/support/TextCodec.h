//===- TextCodec.h - The one bounded codec behind every text format -*- C++ -*-===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every Charon text format (.net, .prop, policy, checkpoint, certificate,
/// cache log, fuzz repro) and the JSON-lines protocols read and write
/// numbers here, under one policy: doubles print as %.17g (round-trips
/// every finite double) and parse with std::from_chars as whole tokens
/// that must be finite; integers parse into their destination type, so
/// overflow and impossible signs are rejected rather than wrapped.
///
/// TextReader is bounded: fits() / count() reject a declared size before
/// the caller allocates for it unless the unread bytes could hold that
/// many values (each needs at least a digit and a separator).
///
//===----------------------------------------------------------------------===//

#ifndef CHARON_SUPPORT_TEXTCODEC_H
#define CHARON_SUPPORT_TEXTCODEC_H

#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace charon {

/// Parses a finite double at the front of [First, Last); returns its end,
/// or nullptr when there is none or it is not finite.
const char *parseFiniteDouble(const char *First, const char *Last,
                              double &Out);

/// Parses all of \p Token as a finite double.
bool parseFiniteDouble(std::string_view Token, double &Out);

/// Parses all of \p Token as a decimal \p IntT (range-checked).
template <class IntT> bool parseInteger(std::string_view Token, IntT &Out) {
  const char *End = Token.data() + Token.size();
  auto [Ptr, Ec] = std::from_chars(Token.data(), End, Out);
  return Ec == std::errc() && Ptr == End && !Token.empty();
}

/// Appends \p X as %.17g.
void appendDouble(std::string &Out, double X);

/// Appends \p V in decimal.
template <class IntT> void appendInteger(std::string &Out, IntT V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

/// Builds a document with std::ostream-like chains that produce the bytes
/// the old setprecision(17) streams did.
class TextWriter {
public:
  TextWriter &operator<<(std::string_view S) {
    Out += S;
    return *this;
  }
  TextWriter &operator<<(char C) {
    Out.push_back(C);
    return *this;
  }
  TextWriter &operator<<(double X) {
    appendDouble(Out, X);
    return *this;
  }
  template <class IntT, class = std::enable_if_t<std::is_integral_v<IntT>>>
  TextWriter &operator<<(IntT V) {
    appendInteger(Out, V);
    return *this;
  }

  /// Writes \p N doubles, each preceded by a space.
  TextWriter &values(const double *V, size_t N);

  /// Writes a split path: "-" for the root, else one '0'/'1' per bit.
  TextWriter &path(const std::vector<uint8_t> &Bits);

  std::string take() { return std::move(Out); }

private:
  std::string Out;
};

/// Cursor over a whole document. Tokens are whitespace-separated; in line
/// mode a newline is structure the caller consumes with newline(). Every
/// reader returns false on malformed input.
class TextReader {
public:
  explicit TextReader(std::string_view Text, bool LineMode = false)
      : Text(Text), LineMode(LineMode) {}

  bool token(std::string_view &Out);
  /// Reads a token equal to \p Word.
  bool keyword(std::string_view Word) {
    std::string_view T;
    return token(T) && T == Word;
  }
  /// Reads a token equal to \p Word, or consumes nothing.
  bool optionalKeyword(std::string_view Word);
  /// Reads the "<magic> <version>" opening of a document.
  bool header(std::string_view Magic, unsigned Version) {
    unsigned V = 0;
    return keyword(Magic) && integer(V) && V == Version;
  }
  bool f64(double &Out) {
    std::string_view T;
    return token(T) && parseFiniteDouble(T, Out);
  }
  template <class IntT> bool integer(IntT &Out) {
    std::string_view T;
    return token(T) && parseInteger(T, Out);
  }

  /// True when the unread bytes could hold the (overflow-checked) product
  /// of \p Factors values.
  bool fits(std::initializer_list<uint64_t> Factors) const;
  /// Reads a declared count N and requires fits({N}).
  bool count(size_t &N) { return integer(N) && fits({N}); }
  /// Reads \p N doubles into caller storage sized after a fits() check.
  bool f64s(double *Out, size_t N);
  /// Reads \p N doubles, allocating only after fits({N}).
  bool values(size_t N, std::vector<double> &Out);
  /// Reads "lower <Dim values>" then "upper <Dim values>" with lo <= hi (in
  /// line mode, each on its own line).
  bool box(size_t Dim, std::vector<double> &Lo, std::vector<double> &Hi);
  /// Reads a split path: "-" (the root) or a string of '0'/'1'.
  bool path(std::vector<uint8_t> &Bits);

  /// Line mode: consumes the end of the current line.
  bool newline();
  /// Takes the next \p Bytes raw bytes.
  bool block(size_t Bytes, std::string_view &Out);
  /// Takes the rest of the current line and steps past its newline.
  std::string_view restOfLine();
  size_t offset() const { return At; }

private:
  bool isSpace(char C) const {
    return C == ' ' || C == '\t' || C == '\r' || C == '\v' || C == '\f' ||
           (C == '\n' && !LineMode);
  }
  void skipSpace() {
    while (At < Text.size() && isSpace(Text[At]))
      ++At;
  }

  std::string_view Text;
  size_t At = 0;
  bool LineMode;
};

/// Everything left in \p Is.
std::string readStream(std::istream &Is);

/// The one file pair behind every save*File / load*File: write \p Text to
/// \p Path, or read \p Path whole (nullopt when unreadable).
bool saveFile(const std::string &Path, std::string_view Text);
std::optional<std::string> readFile(const std::string &Path);

/// Parses the contents of \p Path with \p Parse.
template <class ParseFn>
auto loadFile(const std::string &Path, ParseFn Parse)
    -> decltype(Parse(std::string_view())) {
  std::optional<std::string> Text = readFile(Path);
  if (!Text)
    return std::nullopt;
  return Parse(*Text);
}

} // namespace charon

#endif // CHARON_SUPPORT_TEXTCODEC_H
