//===- SupportTests.cpp - Tests for the support library ----------------------===//

#include "support/Check.h"
#include "support/Random.h"
#include "support/Stats.h"
#include "support/TextCodec.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>

using namespace charon;

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    double U = R.uniform();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng R(9);
  for (int I = 0; I < 1000; ++I) {
    double U = R.uniform(-3.0, 5.5);
    EXPECT_GE(U, -3.0);
    EXPECT_LT(U, 5.5);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng R(11);
  OnlineStats S;
  for (int I = 0; I < 20000; ++I)
    S.add(R.uniform());
  EXPECT_NEAR(S.mean(), 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng R(13);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = R.uniformInt(10);
    EXPECT_LT(V, 10u);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 10u);
}

TEST(RngTest, GaussianMoments) {
  Rng R(17);
  OnlineStats S;
  for (int I = 0; I < 50000; ++I)
    S.add(R.gaussian());
  EXPECT_NEAR(S.mean(), 0.0, 0.02);
  EXPECT_NEAR(S.stddev(), 1.0, 0.02);
}

TEST(RngTest, GaussianScaled) {
  Rng R(19);
  OnlineStats S;
  for (int I = 0; I < 50000; ++I)
    S.add(R.gaussian(3.0, 2.0));
  EXPECT_NEAR(S.mean(), 3.0, 0.05);
  EXPECT_NEAR(S.stddev(), 2.0, 0.05);
}

TEST(RngTest, ForkDecorrelates) {
  Rng A(23);
  Rng B = A.fork();
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 3);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng R(29);
  std::vector<int> V{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  R.shuffle(V);
  std::set<int> S(V.begin(), V.end());
  EXPECT_EQ(S.size(), 10u);
}

//===----------------------------------------------------------------------===//
// OnlineStats
//===----------------------------------------------------------------------===//

TEST(StatsTest, EmptyDefaults) {
  OnlineStats S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_EQ(S.mean(), 0.0);
  EXPECT_EQ(S.variance(), 0.0);
}

TEST(StatsTest, KnownSequence) {
  OnlineStats S;
  for (double X : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    S.add(X);
  EXPECT_EQ(S.count(), 8u);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_NEAR(S.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 9.0);
  EXPECT_DOUBLE_EQ(S.sum(), 40.0);
}

TEST(StatsTest, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometricMean({}), 1.0);
  EXPECT_DOUBLE_EQ(geometricMean({4.0}), 4.0);
  EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(StatsTest, Median) {
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

//===----------------------------------------------------------------------===//
// Timer / Deadline
//===----------------------------------------------------------------------===//

TEST(TimerTest, StopwatchAdvances) {
  Stopwatch W;
  volatile double Sink = 0.0;
  for (int I = 0; I < 100000; ++I)
    Sink += std::sqrt(static_cast<double>(I));
  EXPECT_GT(W.seconds(), 0.0);
}

TEST(TimerTest, UnlimitedDeadlineNeverExpires) {
  Deadline D;
  EXPECT_FALSE(D.expired());
  EXPECT_TRUE(std::isinf(D.remaining()));
}

TEST(TimerTest, ZeroDeadlineExpiresImmediately) {
  Deadline D(0.0);
  EXPECT_TRUE(D.expired());
  EXPECT_EQ(D.remaining(), 0.0);
}

TEST(TimerTest, ProcessCpuSecondsMonotone) {
  double A = processCpuSeconds();
  volatile double Sink = 0.0;
  for (int I = 0; I < 200000; ++I)
    Sink += std::sqrt(static_cast<double>(I));
  double B = processCpuSeconds();
  EXPECT_GE(B, A);
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool Pool(4);
  std::atomic<int> Counter{0};
  for (int I = 0; I < 100; ++I)
    Pool.submit([&Counter] { Counter.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversIndices) {
  ThreadPool Pool(3);
  std::vector<std::atomic<int>> Hits(50);
  Pool.parallelFor(50, [&Hits](int I) { Hits[I].fetch_add(1); });
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ThreadPoolTest, TasksCanSubmitTasks) {
  ThreadPool Pool(2);
  std::atomic<int> Counter{0};
  Pool.submit([&] {
    Counter.fetch_add(1);
    for (int I = 0; I < 10; ++I)
      Pool.submit([&Counter] { Counter.fetch_add(1); });
  });
  Pool.wait();
  EXPECT_EQ(Counter.load(), 11);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool Pool(2);
  std::atomic<int> Counter{0};
  Pool.submit([&Counter] { Counter.fetch_add(1); });
  Pool.wait();
  Pool.submit([&Counter] { Counter.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Counter.load(), 2);
}

TEST(ThreadPoolTest, DefaultSizeIsPositive) {
  ThreadPool Pool;
  EXPECT_GE(Pool.size(), 1u);
}

//===----------------------------------------------------------------------===//
// TextCodec
//===----------------------------------------------------------------------===//

TEST(TextCodecTest, DoublesPrintAsPercent17gAndRoundTrip) {
  const double Xs[] = {0.1,     -0.0,   1e-320, 5e-324, 1.2345678901234567e17,
                       1e300,   -2.5,   3.0,    1.0 / 3.0,
                       std::numeric_limits<double>::max()};
  for (double X : Xs) {
    char Expect[40];
    std::snprintf(Expect, sizeof(Expect), "%.17g", X);
    std::string Got;
    appendDouble(Got, X);
    EXPECT_EQ(Got, Expect);
    double Back = 0.0;
    ASSERT_TRUE(parseFiniteDouble(Got, Back)) << Got;
    EXPECT_EQ(std::memcmp(&Back, &X, sizeof(X)), 0) << Got;
  }
}

TEST(TextCodecTest, NumberPolicyRejectsNonFiniteAndPartialTokens) {
  double D = 0.0;
  for (const char *Bad : {"nan", "-nan", "inf", "-inf", "1e999", "", "1.5x",
                          "0x10", "+1", "--1", "1 2"})
    EXPECT_FALSE(parseFiniteDouble(Bad, D)) << Bad;
  EXPECT_TRUE(parseFiniteDouble("-1.5e-3", D));
  EXPECT_EQ(D, -1.5e-3);

  uint64_t U = 0;
  int I = 0;
  EXPECT_TRUE(parseInteger("18446744073709551615", U));
  EXPECT_FALSE(parseInteger("18446744073709551616", U)); // overflow
  EXPECT_FALSE(parseInteger("-1", U));                   // no wrap-around
  EXPECT_FALSE(parseInteger("2x", I));
  EXPECT_FALSE(parseInteger("3000000000", I));
  EXPECT_TRUE(parseInteger("-7", I));
  EXPECT_EQ(I, -7);
}

TEST(TextCodecTest, DeclaredSizesMustFitTheRemainingBytes) {
  // "n v v v": three values need at least six more bytes.
  TextReader R("3 1 2 3");
  size_t N = 0;
  ASSERT_TRUE(R.count(N));
  EXPECT_TRUE(R.fits({3}));
  EXPECT_FALSE(R.fits({4}));
  EXPECT_FALSE(R.fits({1ull << 32, 1ull << 32, 1ull << 32})); // no overflow
  EXPECT_TRUE(R.fits({0, 1ull << 63}));
  std::vector<double> V;
  ASSERT_TRUE(R.values(N, V));
  EXPECT_EQ(V, (std::vector<double>{1, 2, 3}));
  std::string_view Rest;
  EXPECT_FALSE(R.token(Rest));

  TextReader Huge("99999999999999 1");
  EXPECT_FALSE(Huge.count(N));
}

TEST(TextCodecTest, BoxesPathsAndLines) {
  std::vector<double> Lo, Hi;
  TextReader Good("lower 0 -1\nupper 1 -1\n");
  EXPECT_TRUE(Good.box(2, Lo, Hi));
  TextReader Inverted("lower 0 1\nupper 1 0\n");
  EXPECT_FALSE(Inverted.box(2, Lo, Hi));

  std::vector<uint8_t> Bits;
  TextReader Paths("- 0110 012");
  ASSERT_TRUE(Paths.path(Bits));
  EXPECT_TRUE(Bits.empty());
  ASSERT_TRUE(Paths.path(Bits));
  EXPECT_EQ(Bits, (std::vector<uint8_t>{0, 1, 1, 0}));
  EXPECT_FALSE(Paths.path(Bits));

  // Line mode: newlines are structure, and blocks are byte-counted.
  TextReader Lines("a 1\nb 5\nhello\n", /*LineMode=*/true);
  int X = 0;
  std::string_view Block;
  EXPECT_TRUE(Lines.keyword("a"));
  EXPECT_TRUE(Lines.integer(X));
  EXPECT_FALSE(Lines.keyword("b")); // still on the first line
  EXPECT_TRUE(Lines.newline());
  EXPECT_TRUE(Lines.keyword("b"));
  ASSERT_TRUE(Lines.integer(X));
  EXPECT_TRUE(Lines.newline());
  ASSERT_TRUE(Lines.block(static_cast<size_t>(X), Block));
  EXPECT_EQ(Block, "hello");
  EXPECT_FALSE(Lines.block(2, Block)); // one byte left
}

TEST(TextCodecTest, WriterMatchesStreamFormatting) {
  TextWriter W;
  W << "x " << 42 << " " << uint64_t(18446744073709551615ull) << " " << -7L
    << " " << 0.1 << ' ';
  W.values(std::vector<double>{1.5, 2.0}.data(), 2);
  W << " ";
  W.path({}) << " ";
  W.path({1, 0});
  EXPECT_EQ(W.take(),
            "x 42 18446744073709551615 -7 0.10000000000000001  1.5 2 - 10");
}
