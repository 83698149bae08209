//===- TextCodec.cpp - The one bounded codec behind every text format ---------===//

#include "support/TextCodec.h"

#include <cmath>
#include <fstream>
#include <istream>
#include <sstream>

using namespace charon;

const char *charon::parseFiniteDouble(const char *First, const char *Last,
                                      double &Out) {
  auto [Ptr, Ec] = std::from_chars(First, Last, Out);
  if (Ec != std::errc() || Ptr == First || !std::isfinite(Out))
    return nullptr;
  return Ptr;
}

bool charon::parseFiniteDouble(std::string_view Token, double &Out) {
  const char *End = Token.data() + Token.size();
  return parseFiniteDouble(Token.data(), End, Out) == End;
}

void charon::appendDouble(std::string &Out, double X) {
  // General format at 17 significant digits is specified as printf's %.17g.
  char Buf[32];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), X,
                                std::chars_format::general, 17)
                      .ptr);
}

TextWriter &TextWriter::values(const double *V, size_t N) {
  for (size_t I = 0; I < N; ++I) {
    Out.push_back(' ');
    appendDouble(Out, V[I]);
  }
  return *this;
}

TextWriter &TextWriter::path(const std::vector<uint8_t> &Bits) {
  if (Bits.empty())
    Out.push_back('-');
  for (uint8_t Bit : Bits)
    Out.push_back(Bit ? '1' : '0');
  return *this;
}

bool TextReader::token(std::string_view &Out) {
  skipSpace();
  size_t Start = At;
  while (At < Text.size() && !isSpace(Text[At]) && Text[At] != '\n')
    ++At;
  Out = Text.substr(Start, At - Start);
  return At > Start;
}

bool TextReader::fits(std::initializer_list<uint64_t> Factors) const {
  // Every value takes at least one character plus one separator.
  uint64_t Room = (Text.size() - At) / 2;
  uint64_t Product = 1;
  for (uint64_t F : Factors) {
    if (F == 0)
      return true;
    if (Product > Room / F)
      return false;
    Product *= F;
  }
  return true;
}

bool TextReader::f64s(double *Out, size_t N) {
  size_t I = 0;
  while (I < N && f64(Out[I]))
    ++I;
  return I == N;
}

bool TextReader::values(size_t N, std::vector<double> &Out) {
  if (!fits({N}))
    return false;
  Out.resize(N);
  return f64s(Out.data(), N);
}

bool TextReader::box(size_t Dim, std::vector<double> &Lo,
                     std::vector<double> &Hi) {
  if (!keyword("lower") || !values(Dim, Lo) || (LineMode && !newline()) ||
      !keyword("upper") || !values(Dim, Hi) || (LineMode && !newline()))
    return false;
  for (size_t I = 0; I < Dim; ++I)
    if (!(Lo[I] <= Hi[I]))
      return false;
  return true;
}

bool TextReader::path(std::vector<uint8_t> &Bits) {
  std::string_view T;
  if (!token(T))
    return false;
  Bits.clear();
  for (char C : T == "-" ? std::string_view() : T) {
    if (C != '0' && C != '1')
      return false;
    Bits.push_back(C == '1');
  }
  return true;
}

bool TextReader::newline() {
  skipSpace();
  if (At < Text.size() && Text[At] == '\n') {
    ++At;
    return true;
  }
  return false;
}

bool TextReader::block(size_t Bytes, std::string_view &Out) {
  if (Bytes > Text.size() - At)
    return false;
  Out = Text.substr(At, Bytes);
  At += Bytes;
  return true;
}

std::string_view TextReader::restOfLine() {
  size_t End = Text.find('\n', At);
  if (End == std::string_view::npos)
    End = Text.size();
  std::string_view Line = Text.substr(At, End - At);
  At = End < Text.size() ? End + 1 : End;
  return Line;
}

bool TextReader::optionalKeyword(std::string_view Word) {
  size_t Saved = At;
  if (keyword(Word))
    return true;
  At = Saved;
  return false;
}

std::string charon::readStream(std::istream &Is) {
  std::ostringstream Os;
  Os << Is.rdbuf();
  return std::move(Os).str();
}

bool charon::saveFile(const std::string &Path, std::string_view Text) {
  std::ofstream Os(Path, std::ios::binary);
  if (!Os)
    return false;
  Os.write(Text.data(), static_cast<std::streamsize>(Text.size()));
  return static_cast<bool>(Os);
}

std::optional<std::string> charon::readFile(const std::string &Path) {
  std::ifstream Is(Path, std::ios::binary | std::ios::ate);
  if (!Is)
    return std::nullopt;
  std::streamoff Size = Is.tellg();
  if (Size < 0) // not seekable (a pipe): read it as a stream
    return readStream(Is);
  // Read into an exactly sized buffer: a growing one would briefly hold
  // up to three copies of a multi-megabyte network file.
  std::string Text(static_cast<size_t>(Size), '\0');
  if (!Is.seekg(0) || !Is.read(Text.data(), Size))
    return std::nullopt;
  return Text;
}
