//===- IoFuzzTests.cpp - Robustness of the network parser ----------------------===//
//
// The loader consumes hand-editable text files (charon_cli feeds it user
// input), so it must reject arbitrary corruption gracefully — returning
// nullopt, never crashing or constructing an inconsistent network.
//
//===----------------------------------------------------------------------===//

#include "nn/Builder.h"
#include "nn/Io.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace charon;

namespace {

std::string serialize(const Network &Net) {
  std::stringstream Ss;
  saveNetwork(Net, Ss);
  return Ss.str();
}

/// Tries to load \p Text; on success the result must be a structurally
/// coherent network (evaluation does not trip assertions).
void loadAndExercise(const std::string &Text) {
  std::stringstream Ss(Text);
  auto Net = loadNetwork(Ss);
  if (!Net)
    return;
  // Parsed networks must be evaluable end to end.
  Vector X(Net->inputSize(), 0.5);
  Vector Y = Net->evaluate(X);
  EXPECT_EQ(Y.size(), Net->outputSize());
}

} // namespace

TEST(IoFuzzTest, TruncationsNeverCrash) {
  Rng R(1);
  Network Net = makeMlp(4, {6, 6}, 3, R);
  std::string Text = serialize(Net);
  for (size_t Len = 0; Len < Text.size(); Len += 13)
    loadAndExercise(Text.substr(0, Len));
}

TEST(IoFuzzTest, ByteFlipsNeverCrash) {
  Rng R(2);
  Network Net = makeMlp(3, {5}, 2, R);
  std::string Text = serialize(Net);
  for (int Trial = 0; Trial < 200; ++Trial) {
    std::string Mutated = Text;
    size_t Pos = R.uniformInt(Mutated.size());
    Mutated[Pos] = static_cast<char>('!' + R.uniformInt(90));
    loadAndExercise(Mutated);
  }
}

TEST(IoFuzzTest, ConvTruncationsNeverCrash) {
  Rng R(3);
  Network Net = makeLeNet(TensorShape{1, 6, 6}, 3, R);
  std::string Text = serialize(Net);
  for (size_t Len = 0; Len < Text.size(); Len += 101)
    loadAndExercise(Text.substr(0, Len));
}

TEST(IoFuzzTest, LayerCountMismatchRejected) {
  Rng R(4);
  Network Net = makeMlp(3, {4}, 2, R);
  std::string Text = serialize(Net);
  // Claim more layers than are present.
  size_t Pos = Text.find(" 3\n");
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos, 3, " 9\n");
  std::stringstream Ss(Text);
  EXPECT_FALSE(loadNetwork(Ss).has_value());

  // Likewise a layer declaring more weights than the file holds: rejected
  // before anything is allocated, not an abort in the allocator.
  for (const char *Oversized :
       {"charon-network 1 1\ndense 200000 200000\n0 0\n",
        "charon-network 1 1\nconv 1 8 8 4096 1024 1024 1 512\n0 0\n"}) {
    std::stringstream Os(Oversized);
    EXPECT_FALSE(loadNetwork(Os).has_value()) << Oversized;
  }
}

TEST(IoFuzzTest, RandomGarbageRejected) {
  Rng R(5);
  for (int Trial = 0; Trial < 100; ++Trial) {
    std::string Garbage;
    size_t Len = R.uniformInt(200);
    for (size_t I = 0; I < Len; ++I)
      Garbage.push_back(static_cast<char>(' ' + R.uniformInt(95)));
    loadAndExercise(Garbage);
  }
}

TEST(IoFuzzTest, DoubleRoundTripIsIdentity) {
  Rng R(6);
  Network Net = makeMlp(5, {7, 7}, 4, R);
  std::string Once = serialize(Net);
  std::stringstream Ss(Once);
  auto Loaded = loadNetwork(Ss);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(serialize(*Loaded), Once);
}
