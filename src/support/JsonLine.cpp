//===- JsonLine.cpp - Minimal JSON-lines object parser/printer ----------------===//

#include "support/JsonLine.h"

#include "support/TextCodec.h"

#include <cctype>
#include <string_view>

using namespace charon;
using namespace charon::json;

namespace {

/// The escapes of the dialect: each character of EscapedChars is written
/// as a backslash plus the letter at the same index ("\/" also reads).
constexpr std::string_view EscapedChars = "\"\\\n\t\r";
constexpr std::string_view EscapeLetters = "\"\\ntr";

class LineParser {
public:
  explicit LineParser(const std::string &Line)
      : P(Line.c_str()), End(Line.c_str() + Line.size()) {}

  /// Parses the whole line as one object; false on any syntax error.
  bool parse(Object &Out) {
    skipWs();
    if (!consume('{'))
      return fail("expected '{'");
    skipWs();
    if (consume('}'))
      return atEnd();
    while (true) {
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (!consume(':'))
        return fail("expected ':'");
      Value V;
      if (!parseValue(V))
        return false;
      if (!Out.emplace(std::move(Key), std::move(V)).second)
        return fail("duplicate key");
      skipWs();
      if (consume(',')) {
        skipWs();
        continue;
      }
      if (consume('}'))
        return atEnd();
      return fail("expected ',' or '}'");
    }
  }

  const std::string &error() const { return Err; }

private:
  bool atEnd() {
    skipWs();
    return P == End ? true : fail("trailing characters");
  }

  bool fail(const char *Msg) {
    if (Err.empty())
      Err = Msg;
    return false;
  }

  void skipWs() {
    while (P != End && std::isspace(static_cast<unsigned char>(*P)))
      ++P;
  }

  bool consume(char C) {
    if (P != End && *P == C) {
      ++P;
      return true;
    }
    return false;
  }

  bool parseString(std::string &Out) {
    skipWs();
    if (!consume('"'))
      return fail("expected string");
    Out.clear();
    while (P != End && *P != '"') {
      char C = *P++;
      if (C != '\\') {
        Out.push_back(C);
        continue;
      }
      if (P == End)
        return fail("truncated escape");
      char Letter = *P++;
      size_t I = EscapeLetters.find(Letter);
      if (Letter != '/' && I == std::string_view::npos)
        return fail("unsupported escape");
      Out.push_back(Letter == '/' ? '/' : EscapedChars[I]);
    }
    if (!consume('"'))
      return fail("unterminated string");
    return true;
  }

  bool parseNumber(double &Out) {
    const char *NumEnd = parseFiniteDouble(P, End, Out);
    if (!NumEnd)
      return fail("expected finite number");
    P = NumEnd;
    return true;
  }

  bool parseValue(Value &V) {
    skipWs();
    if (P == End)
      return fail("missing value");
    if (*P == '"') {
      V.K = Value::Str;
      return parseString(V.S);
    }
    if (*P == '[') {
      ++P;
      V.K = Value::NumArray;
      skipWs();
      if (consume(']'))
        return true;
      while (true) {
        double X;
        if (!parseNumber(X))
          return false;
        V.A.push_back(X);
        skipWs();
        if (consume(',')) {
          skipWs();
          continue;
        }
        if (consume(']'))
          return true;
        return fail("expected ',' or ']'");
      }
    }
    for (bool B : {true, false}) {
      std::string_view Word = B ? "true" : "false";
      if (std::string_view(P, End - P).substr(0, Word.size()) == Word) {
        P += Word.size();
        V.K = Value::Bool;
        V.B = B;
        return true;
      }
    }
    V.K = Value::Num;
    return parseNumber(V.N);
  }

  const char *P;
  const char *End;
  std::string Err;
};

} // namespace

bool charon::json::parseObjectLine(const std::string &Line, Object &Out,
                                   std::string *Error) {
  LineParser Parser(Line);
  if (Parser.parse(Out))
    return true;
  if (Error)
    *Error = Parser.error();
  return false;
}

void ObjectWriter::key(const char *Key) {
  Out += Out.empty() ? "{\"" : ",\"";
  Out += Key;
  Out += "\":";
}

ObjectWriter &ObjectWriter::str(const char *Key, const std::string &S) {
  key(Key);
  Out.push_back('"');
  for (char C : S) {
    size_t I = EscapedChars.find(C);
    if (I != std::string_view::npos)
      Out.push_back('\\');
    Out.push_back(I == std::string_view::npos ? C : EscapeLetters[I]);
  }
  Out.push_back('"');
  return *this;
}

ObjectWriter &ObjectWriter::num(const char *Key, double X) {
  key(Key);
  appendDouble(Out, X);
  return *this;
}

ObjectWriter &ObjectWriter::nums(const char *Key, const double *A, size_t N) {
  key(Key);
  Out.push_back('[');
  for (size_t I = 0; I < N; ++I) {
    if (I)
      Out.push_back(',');
    appendDouble(Out, A[I]);
  }
  Out.push_back(']');
  return *this;
}

ObjectWriter &ObjectWriter::flag(const char *Key, bool B) {
  key(Key);
  Out += B ? "true" : "false";
  return *this;
}

std::string ObjectWriter::done() {
  Out += Out.empty() ? "{}" : "}";
  return std::move(Out);
}

std::string charon::json::formatU64(uint64_t V) {
  std::string Out;
  appendInteger(Out, V);
  return Out;
}

bool charon::json::parseU64(const std::string &S, uint64_t &Out) {
  return parseInteger(S, Out);
}
