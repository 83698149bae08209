//===- OnnxBuilder.cpp - Assemble ONNX model bytes ----------------------------===//

#include "onnx/OnnxBuilder.h"

#include "support/TextCodec.h"

#include <cstring>

using namespace charon;
using namespace charon::onnx;

namespace {

using Bytes = std::vector<unsigned char>;

void putVarint(Bytes &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<unsigned char>(V) | 0x80);
    V >>= 7;
  }
  Out.push_back(static_cast<unsigned char>(V));
}

void putKey(Bytes &Out, uint32_t Field, uint32_t Wire) {
  putVarint(Out, (static_cast<uint64_t>(Field) << 3) | Wire);
}

void putLengthDelim(Bytes &Out, uint32_t Field, const Bytes &Payload) {
  putKey(Out, Field, 2);
  putVarint(Out, Payload.size());
  Out.insert(Out.end(), Payload.begin(), Payload.end());
}

void putString(Bytes &Out, uint32_t Field, const std::string &S) {
  putKey(Out, Field, 2);
  putVarint(Out, S.size());
  Out.insert(Out.end(), S.begin(), S.end());
}

void putVarintField(Bytes &Out, uint32_t Field, uint64_t V) {
  putKey(Out, Field, 0);
  putVarint(Out, V);
}

void putFloatField(Bytes &Out, uint32_t Field, double V) {
  putKey(Out, Field, 5);
  float F = static_cast<float>(V);
  uint32_t Bits;
  std::memcpy(&Bits, &F, 4);
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<unsigned char>(Bits >> (8 * I)));
}

// TensorProto with DOUBLE elements in raw_data, so fixture weights survive
// the round trip exactly (no float32 truncation).
Bytes encodeDoubleTensor(const std::string &Name,
                         const std::vector<int64_t> &Dims,
                         const std::vector<double> &Values) {
  Bytes T;
  for (int64_t D : Dims)
    putVarintField(T, 1, static_cast<uint64_t>(D));
  putVarintField(T, 2, 11); // data_type = DOUBLE
  putString(T, 8, Name);
  Bytes Raw;
  Raw.reserve(Values.size() * 8);
  for (double V : Values) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, 8);
    for (int I = 0; I < 8; ++I)
      Raw.push_back(static_cast<unsigned char>(Bits >> (8 * I)));
  }
  putLengthDelim(T, 9, Raw); // raw_data
  return T;
}

Bytes encodeInt64Tensor(const std::string &Name,
                        const std::vector<int64_t> &Dims,
                        const std::vector<int64_t> &Values) {
  Bytes T;
  for (int64_t D : Dims)
    putVarintField(T, 1, static_cast<uint64_t>(D));
  putVarintField(T, 2, 7); // data_type = INT64
  putString(T, 8, Name);
  Bytes Raw;
  Raw.reserve(Values.size() * 8);
  for (int64_t V : Values) {
    uint64_t Bits = static_cast<uint64_t>(V);
    for (int I = 0; I < 8; ++I)
      Raw.push_back(static_cast<unsigned char>(Bits >> (8 * I)));
  }
  putLengthDelim(T, 9, Raw); // raw_data
  return T;
}

Bytes encodeValueInfo(const std::string &Name,
                      const std::vector<int64_t> &Dims) {
  // Dimension { dim_value = 1 }
  Bytes Shape;
  for (int64_t D : Dims) {
    Bytes Dim;
    putVarintField(Dim, 1, static_cast<uint64_t>(D));
    putLengthDelim(Shape, 1, Dim);
  }
  Bytes TT; // TypeProto.Tensor { elem_type = 1, shape = 2 }
  putVarintField(TT, 1, 1); // FLOAT
  putLengthDelim(TT, 2, Shape);
  Bytes Type; // TypeProto { tensor_type = 1 }
  putLengthDelim(Type, 1, TT);
  Bytes V; // ValueInfoProto { name = 1, type = 2 }
  putString(V, 1, Name);
  putLengthDelim(V, 2, Type);
  return V;
}

} // namespace

ModelBuilder::Attr ModelBuilder::Attr::ofInt(const std::string &N, int64_t V) {
  Attr A;
  A.Name = N;
  A.K = Kind::Int;
  A.I = V;
  return A;
}

ModelBuilder::Attr ModelBuilder::Attr::ofFloat(const std::string &N,
                                               double V) {
  Attr A;
  A.Name = N;
  A.K = Kind::Float;
  A.F = V;
  return A;
}

ModelBuilder::Attr ModelBuilder::Attr::ofInts(const std::string &N,
                                              std::vector<int64_t> V) {
  Attr A;
  A.Name = N;
  A.K = Kind::Ints;
  A.Ints = std::move(V);
  return A;
}

void ModelBuilder::addInitializer(const std::string &Name,
                                  const std::vector<int64_t> &Dims,
                                  const std::vector<double> &Values) {
  putLengthDelim(InitializerBytes, 5, encodeDoubleTensor(Name, Dims, Values));
}

void ModelBuilder::addInt64Initializer(const std::string &Name,
                                       const std::vector<int64_t> &Dims,
                                       const std::vector<int64_t> &Values) {
  putLengthDelim(InitializerBytes, 5, encodeInt64Tensor(Name, Dims, Values));
}

void ModelBuilder::setInput(const std::string &Name,
                            const std::vector<int64_t> &Dims) {
  putLengthDelim(InputBytes, 11, encodeValueInfo(Name, Dims));
}

void ModelBuilder::setOutput(const std::string &Name,
                             const std::vector<int64_t> &Dims) {
  putLengthDelim(OutputBytes, 12, encodeValueInfo(Name, Dims));
}

void ModelBuilder::addNode(const std::string &OpType,
                           const std::vector<std::string> &Inputs,
                           const std::vector<std::string> &Outputs,
                           const std::vector<Attr> &Attrs,
                           const std::string &NodeName) {
  Bytes N;
  for (const std::string &In : Inputs)
    putString(N, 1, In);
  for (const std::string &Out : Outputs)
    putString(N, 2, Out);
  if (!NodeName.empty())
    putString(N, 3, NodeName);
  putString(N, 4, OpType);
  for (const Attr &A : Attrs) {
    Bytes AB;
    putString(AB, 1, A.Name);
    switch (A.K) {
    case Attr::Kind::Int:
      putVarintField(AB, 3, static_cast<uint64_t>(A.I));
      putVarintField(AB, 20, 2); // AttributeType INT
      break;
    case Attr::Kind::Float:
      putFloatField(AB, 2, A.F);
      putVarintField(AB, 20, 1); // AttributeType FLOAT
      break;
    case Attr::Kind::Ints:
      for (int64_t V : A.Ints)
        putVarintField(AB, 8, static_cast<uint64_t>(V));
      putVarintField(AB, 20, 7); // AttributeType INTS
      break;
    case Attr::Kind::Floats:
      for (double V : A.Floats)
        putFloatField(AB, 7, V);
      putVarintField(AB, 20, 6); // AttributeType FLOATS
      break;
    }
    putLengthDelim(N, 5, AB);
  }
  putLengthDelim(NodeBytes, 1, N);
}

std::vector<unsigned char>
ModelBuilder::finish(const std::string &GraphName) const {
  Bytes G;
  G.insert(G.end(), NodeBytes.begin(), NodeBytes.end());
  putString(G, 2, GraphName);
  G.insert(G.end(), InitializerBytes.begin(), InitializerBytes.end());
  G.insert(G.end(), InputBytes.begin(), InputBytes.end());
  G.insert(G.end(), OutputBytes.begin(), OutputBytes.end());

  Bytes M;
  putVarintField(M, 1, 8); // ir_version
  putLengthDelim(M, 7, G);
  return M;
}

bool charon::onnx::writeModelFile(const std::vector<unsigned char> &Bytes,
                                  const std::string &Path) {
  return saveFile(Path, std::string_view(
                             reinterpret_cast<const char *>(Bytes.data()),
                             Bytes.size()));
}
