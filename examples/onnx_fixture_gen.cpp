//===- onnx_fixture_gen.cpp - Deterministic ONNX fixture models ----------------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// Writes small, fully deterministic ONNX models for the importer tests and
// the CI smoke leg:
//
//   onnx_fixture_gen <fixture> <out.onnx>
//
// Fixtures:
//   mixed          Conv -> BatchNorm -> Relu -> AveragePool -> residual
//                  (Dense+Sigmoid body) -> Flatten -> Gemm. Exercises every
//                  importer feature in one graph.
//   mlp-sigmoid    MatMul + Add bias -> Sigmoid -> Gemm.
//   nan-gemm       One Gemm(2 -> 3) whose weight "w_nan" holds a NaN; the
//                  importer must reject it (malformed-input smoke).
//
// Weights are closed-form functions of their indices, so the emitted bytes
// are identical on every run and platform.
//
//===----------------------------------------------------------------------===//

#include "onnx/OnnxBuilder.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace charon::onnx;

namespace {

// Small deterministic weight in [-0.75, 0.75]: a fixed-point sine keyed by
// the flat index. No RNG, no platform-dependent state.
double weightAt(int Seed, int I) {
  return 0.75 * std::sin(0.7 * Seed + 0.31 * I + 0.13);
}

std::vector<double> weightBlock(int Seed, int Count) {
  std::vector<double> V(Count);
  for (int I = 0; I < Count; ++I)
    V[I] = weightAt(Seed, I);
  return V;
}

/// Conv(2ch 6x6 -> 3ch 4x4, k3 s1 p0) -> BatchNorm -> Relu ->
/// AveragePool(2x2 s2 -> 3ch 2x2) -> residual(Dense 12x12 + Sigmoid) ->
/// Flatten -> Gemm(12 -> 3).
std::vector<unsigned char> buildMixed() {
  ModelBuilder B;
  B.setInput("x", {1, 2, 6, 6});

  B.addInitializer("conv_w", {3, 2, 3, 3}, weightBlock(1, 3 * 2 * 3 * 3));
  B.addInitializer("conv_b", {3}, weightBlock(2, 3));
  B.addNode("Conv", {"x", "conv_w", "conv_b"}, {"c1"},
            {ModelBuilder::Attr::ofInts("kernel_shape", {3, 3}),
             ModelBuilder::Attr::ofInts("strides", {1, 1}),
             ModelBuilder::Attr::ofInts("pads", {0, 0, 0, 0})});

  B.addInitializer("bn_scale", {3}, {1.25, 0.8, 1.1});
  B.addInitializer("bn_bias", {3}, {0.05, -0.1, 0.02});
  B.addInitializer("bn_mean", {3}, {0.01, -0.02, 0.03});
  B.addInitializer("bn_var", {3}, {0.9, 1.1, 1.0});
  B.addNode("BatchNormalization",
            {"c1", "bn_scale", "bn_bias", "bn_mean", "bn_var"}, {"b1"},
            {ModelBuilder::Attr::ofFloat("epsilon", 1e-5)});

  B.addNode("Relu", {"b1"}, {"r1"});
  B.addNode("AveragePool", {"r1"}, {"p1"},
            {ModelBuilder::Attr::ofInts("kernel_shape", {2, 2}),
             ModelBuilder::Attr::ofInts("strides", {2, 2})});

  // Residual block on the 12-element value: p1 + Sigmoid(Dense(p1)).
  B.addInitializer("res_w", {12, 12}, weightBlock(3, 12 * 12));
  B.addInitializer("res_b", {1, 12}, weightBlock(4, 12));
  B.addNode("MatMul", {"p1", "res_w"}, {"m1"});
  B.addNode("Add", {"m1", "res_b"}, {"a1"});
  B.addNode("Sigmoid", {"a1"}, {"s1"});
  B.addNode("Add", {"p1", "s1"}, {"res"});

  B.addNode("Flatten", {"res"}, {"f1"},
            {ModelBuilder::Attr::ofInt("axis", 1)});

  B.addInitializer("fc_w", {3, 12}, weightBlock(5, 3 * 12));
  B.addInitializer("fc_b", {3}, weightBlock(6, 3));
  B.addNode("Gemm", {"f1", "fc_w", "fc_b"}, {"y"},
            {ModelBuilder::Attr::ofInt("transB", 1)});

  B.setOutput("y", {1, 3});
  return B.finish("mixed");
}

/// MatMul(4 -> 8) + Add bias -> Sigmoid -> Gemm(8 -> 3).
std::vector<unsigned char> buildMlpSigmoid() {
  ModelBuilder B;
  B.setInput("x", {1, 4});
  B.addInitializer("w1", {4, 8}, weightBlock(11, 4 * 8));
  B.addInitializer("b1", {8}, weightBlock(12, 8));
  B.addNode("MatMul", {"x", "w1"}, {"m1"});
  B.addNode("Add", {"m1", "b1"}, {"a1"});
  B.addNode("Sigmoid", {"a1"}, {"s1"});
  B.addInitializer("w2", {3, 8}, weightBlock(13, 3 * 8));
  B.addInitializer("b2", {3}, weightBlock(14, 3));
  B.addNode("Gemm", {"s1", "w2", "b2"}, {"y"},
            {ModelBuilder::Attr::ofInt("transB", 1)});
  B.setOutput("y", {1, 3});
  return B.finish("mlp-sigmoid");
}

/// Gemm(2 -> 3) with one NaN weight.
std::vector<unsigned char> buildNanGemm() {
  std::vector<double> W = weightBlock(15, 3 * 2);
  W[3] = std::nan("");
  ModelBuilder B;
  B.setInput("x", {1, 2});
  B.addInitializer("w_nan", {3, 2}, W);
  B.addInitializer("b", {3}, weightBlock(16, 3));
  B.addNode("Gemm", {"x", "w_nan", "b"}, {"y"},
            {ModelBuilder::Attr::ofInt("transB", 1)});
  B.setOutput("y", {1, 3});
  return B.finish("nan-gemm");
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 3) {
    std::fprintf(stderr, "usage: %s <mixed|mlp-sigmoid|nan-gemm> <out.onnx>\n",
                 Argv[0]);
    return 2;
  }
  std::vector<unsigned char> Bytes;
  if (!std::strcmp(Argv[1], "mixed"))
    Bytes = buildMixed();
  else if (!std::strcmp(Argv[1], "mlp-sigmoid"))
    Bytes = buildMlpSigmoid();
  else if (!std::strcmp(Argv[1], "nan-gemm"))
    Bytes = buildNanGemm();
  else {
    std::fprintf(stderr, "error: unknown fixture '%s'\n", Argv[1]);
    return 2;
  }
  if (!writeModelFile(Bytes, Argv[2])) {
    std::fprintf(stderr, "error: cannot write %s\n", Argv[2]);
    return 2;
  }
  std::printf("wrote %s (%zu bytes)\n", Argv[2], Bytes.size());
  return 0;
}
