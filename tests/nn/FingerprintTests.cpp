//===- FingerprintTests.cpp - The memoized network fingerprint ---------------===//
//
// Part of the Charon reproduction of "Optimization and Abstraction" (PLDI'19).
//
// fingerprintNetwork is computed at most once per weight state and reused
// by every certificate, checkpoint, cache key and fleet job. These tests
// pin three things: the values never change (certificates and cache logs
// written before the memo still match), every mutating path drops the
// memo, and the memo and the lazily built lowerings are safe to fill from
// several threads at once.
//
//===----------------------------------------------------------------------===//

#include "abstract/Analyzer.h"
#include "cert/Certificate.h"
#include "core/Policy.h"
#include "core/Verifier.h"
#include "nn/Builder.h"
#include "nn/Conv2D.h"
#include "nn/Dense.h"
#include "nn/Io.h"
#include "nn/Relu.h"
#include "nn/Train.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace charon;

namespace {

/// A dense layer that counts how often its affine view is read: the
/// fingerprint reads it once per hash, so the count shows how often the
/// network was hashed.
class ProbeDense : public DenseLayer {
public:
  using DenseLayer::DenseLayer;
  std::optional<AffineView> affineForm() const override {
    Calls.fetch_add(1, std::memory_order_relaxed);
    return DenseLayer::affineForm();
  }
  mutable std::atomic<int> Calls{0};
};

/// makeMlp(3, {8}, 2) from a fixed seed, with its first layer replaced by
/// a ProbeDense of the same weights; \p Probe points at it.
Network makeProbeNet(ProbeDense *&Probe) {
  Rng R(21);
  Network Src = makeMlp(3, {8}, 2, R);
  const auto &First = static_cast<const DenseLayer &>(
      static_cast<const Network &>(Src).layer(0));
  auto P = std::make_unique<ProbeDense>(First.weights(), First.bias());
  Probe = P.get();
  Network Net;
  Net.addLayer(std::move(P));
  for (size_t I = 1, E = Src.numLayers(); I < E; ++I)
    Net.addLayer(Src.layer(I).clone());
  return Net;
}

Network makePinnedLeNet() {
  Rng R(15);
  return makeLeNet(TensorShape{1, 8, 8}, 3, R);
}

uint64_t bitsOf(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return Bits;
}

} // namespace

//===----------------------------------------------------------------------===//
// Values never change
//===----------------------------------------------------------------------===//

TEST(FingerprintTest, GoldenValuesArePinned) {
  // Computed before the fingerprint was memoized; persisted certificates,
  // checkpoints, cache logs and fleet load lines carry these values.
  const std::string Dir = CHARON_ONNX_FIXTURE_DIR;
  auto Mixed = loadNetworkFile(Dir + "/mixed.net");
  auto Sigmoid = loadNetworkFile(Dir + "/mlp_sigmoid.net");
  ASSERT_TRUE(Mixed && Sigmoid);
  EXPECT_EQ(fingerprintNetwork(*Mixed), 0xdbb53847ad7f1354ull);
  EXPECT_EQ(fingerprintNetwork(*Sigmoid), 0x7abff0b3e8955177ull);
  EXPECT_EQ(fingerprintNetwork(makePinnedLeNet()), 0xcfb79fb4d2f2c8ffull);
}

//===----------------------------------------------------------------------===//
// Every mutating path drops the memo
//===----------------------------------------------------------------------===//

TEST(FingerprintTest, AddLayerDropsMemo) {
  Rng R(1);
  Network Net = makeMlp(3, {5}, 2, R);
  uint64_t Before = fingerprintNetwork(Net);
  Net.addLayer(std::make_unique<ReluLayer>(2));
  EXPECT_NE(fingerprintNetwork(Net), Before);
}

TEST(FingerprintTest, WeightChangeThroughLayerDropsMemo) {
  Rng R(8);
  Network Net = makeMlp(3, {5}, 2, R);
  uint64_t Before = fingerprintNetwork(Net);
  auto &Dense = static_cast<DenseLayer &>(Net.layer(0));
  const double Old = Dense.weights()(0, 0);
  Dense.weights()(0, 0) = Old + 10.0;
  uint64_t After = fingerprintNetwork(Net);
  EXPECT_NE(After, Before);
  static_cast<DenseLayer &>(Net.layer(0)).weights()(0, 0) = Old;
  EXPECT_EQ(fingerprintNetwork(Net), Before);
}

TEST(FingerprintTest, ConvKernelAndBiasDropMemoAndLowering) {
  Network Net = makePinnedLeNet();
  const uint64_t Pinned = fingerprintNetwork(Net);
  auto &Conv = static_cast<Conv2DLayer &>(Net.layer(0));
  const double Old = Conv.kernelAt(1, 0, 2, 2);
  Conv.kernelAt(1, 0, 2, 2) = Old + 0.5;
  uint64_t KernelChanged = fingerprintNetwork(Net);
  EXPECT_NE(KernelChanged, Pinned);
  // The lowering was rebuilt too: the affine view sees the new tap.
  const Network &View = Net;
  const Matrix &W = *View.layer(0).affineForm()->W;
  const TensorShape In = Conv.inputShape();
  const TensorShape Out = Conv.outputShape();
  // Output (1, 1, 1) reads input (0, 2, 2) through tap (ky, kx) = (2, 2).
  EXPECT_EQ(W(Out.index(1, 1, 1), In.index(0, 2, 2)), Old + 0.5);

  static_cast<Conv2DLayer &>(Net.layer(0)).kernelAt(1, 0, 2, 2) = Old;
  EXPECT_EQ(fingerprintNetwork(Net), Pinned);
  static_cast<Conv2DLayer &>(Net.layer(0)).bias()[3] += 1.0;
  uint64_t BiasChanged = fingerprintNetwork(Net);
  EXPECT_NE(BiasChanged, Pinned);
  EXPECT_NE(BiasChanged, KernelChanged);
}

TEST(FingerprintTest, TrainingDropsMemo) {
  Rng R(3);
  Network Net = makeMlp(4, {6}, 2, R);
  uint64_t Before = fingerprintNetwork(Net);
  Dataset Data;
  Data.NumClasses = 2;
  for (int I = 0; I < 8; ++I) {
    Vector X(4);
    for (size_t J = 0; J < 4; ++J)
      X[J] = R.uniform(0.0, 1.0);
    Data.Inputs.push_back(X);
    Data.Labels.push_back(I % 2);
  }
  TrainConfig Config;
  Config.Epochs = 1;
  Config.BatchSize = 4;
  trainSgd(Net, Data, Config, R);
  EXPECT_NE(fingerprintNetwork(Net), Before);
}

//===----------------------------------------------------------------------===//
// Clones and moves
//===----------------------------------------------------------------------===//

TEST(FingerprintTest, CloneEqualsAndStaysIndependent) {
  Network Net = makePinnedLeNet();
  uint64_t Original = fingerprintNetwork(Net);
  Network Copy = Net.clone();
  EXPECT_EQ(fingerprintNetwork(Copy), Original);
  static_cast<Conv2DLayer &>(Copy.layer(0)).bias()[0] += 1.0;
  EXPECT_NE(fingerprintNetwork(Copy), Original);
  EXPECT_EQ(fingerprintNetwork(Net), Original);
}

TEST(FingerprintTest, MovesCarryTheMemo) {
  ProbeDense *Probe = nullptr;
  Network Net = makeProbeNet(Probe);
  uint64_t Fp = fingerprintNetwork(Net);
  EXPECT_EQ(Probe->Calls.load(), 1);
  EXPECT_EQ(fingerprintNetwork(Net), Fp);
  Network Moved = std::move(Net);
  EXPECT_EQ(fingerprintNetwork(Moved), Fp);
  Rng R(2);
  Network Assigned = makeMlp(3, {4}, 2, R);
  uint64_t Other = fingerprintNetwork(Assigned);
  Assigned = std::move(Moved);
  EXPECT_EQ(fingerprintNetwork(Assigned), Fp);
  EXPECT_NE(Other, Fp);
  EXPECT_EQ(Probe->Calls.load(), 1); // never re-hashed
}

//===----------------------------------------------------------------------===//
// One hash per network, however many verdicts certify against it
//===----------------------------------------------------------------------===//

TEST(FingerprintTest, CertifiedVerifiesHashOnce) {
  // Certificates are the only difference between the two runs, and each
  // certificate carries the fingerprint: with the memo the certified runs
  // read the probed layer exactly once more than the uncertified ones,
  // however many verdicts they certify.
  constexpr int Runs = 5;
  ProbeDense *Unused = nullptr;
  const uint64_t Expected = fingerprintNetwork(makeProbeNet(Unused));
  ProbeDense *ProbeOff = nullptr;
  ProbeDense *ProbeOn = nullptr;
  Network Off = makeProbeNet(ProbeOff);
  Network On = makeProbeNet(ProbeOn);
  Vector Center{0.5, 0.5, 0.5};
  RobustnessProperty Prop;
  Prop.Region = Box::linfBall(Center, 0.001, 0.0, 1.0);
  Prop.TargetClass = Off.classify(Center);
  Prop.Name = "probe";

  VerifierConfig Config;
  Config.TimeLimitSeconds = 30.0;
  Verifier PlainVerifier(Off, VerificationPolicy(), Config);
  Config.EmitCertificate = true;
  Verifier CertVerifier(On, VerificationPolicy(), Config);
  for (int I = 0; I < Runs; ++I) {
    VerifyResult Plain = PlainVerifier.verify(Prop);
    VerifyResult Certified = CertVerifier.verify(Prop);
    ASSERT_NE(Certified.Result, Outcome::Timeout);
    EXPECT_EQ(Certified.Result, Plain.Result);
    ASSERT_TRUE(Certified.Certificate);
    EXPECT_EQ(Certified.Certificate->NetworkFingerprint, Expected);
  }
  EXPECT_EQ(ProbeOn->Calls.load() - ProbeOff->Calls.load(), 1);
}

//===----------------------------------------------------------------------===//
// Threads
//===----------------------------------------------------------------------===//

TEST(FingerprintTest, ConcurrentFirstCallsHashOnce) {
  ProbeDense *Probe = nullptr;
  const Network Net = makeProbeNet(Probe);
  std::atomic<bool> Go{false};
  std::vector<uint64_t> Seen(4, 0);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < Seen.size(); ++T)
    Threads.emplace_back([&, T] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      Seen[T] = fingerprintNetwork(Net);
    });
  Go.store(true, std::memory_order_release);
  for (std::thread &Th : Threads)
    Th.join();
  ProbeDense *SerialProbe = nullptr;
  const uint64_t Serial = fingerprintNetwork(makeProbeNet(SerialProbe));
  for (uint64_t V : Seen)
    EXPECT_EQ(V, Serial);
  EXPECT_EQ(Probe->Calls.load(), 1);
}

TEST(FingerprintTest, ConcurrentAnalysisOfFreshCloneMatchesSerial) {
  // A fresh clone has no lowering built. Several threads analyzing it at
  // once race to build each conv lowering; the guard builds it once and
  // every thread must see exactly what a serial analysis sees.
  const Network Net = makePinnedLeNet();
  Vector Center(Net.inputSize());
  Rng R(16);
  for (size_t I = 0; I < Center.size(); ++I)
    Center[I] = R.uniform(0.3, 0.7);
  const size_t K = Net.classify(Center);
  const DomainSpec Specs[] = {{BaseDomainKind::Zonotope, 1},
                              {BaseDomainKind::Interval, 1},
                              {BaseDomainKind::Polyhedra, 1},
                              {BaseDomainKind::Zonotope, 2}};
  const double Radii[] = {0.002, 0.01};
  struct Job {
    Box Region;
    DomainSpec Spec;
  };
  std::vector<Job> Jobs;
  for (double Radius : Radii)
    for (const DomainSpec &Spec : Specs)
      Jobs.push_back({Box::linfBall(Center, Radius, 0.0, 1.0), Spec});

  std::vector<AnalysisResult> Serial;
  for (const Job &J : Jobs)
    Serial.push_back(analyzeRobustness(Net, J.Region, K, J.Spec));

  for (int Round = 0; Round < 3; ++Round) {
    const Network Fresh = Net.clone();
    std::vector<AnalysisResult> Parallel(Jobs.size());
    std::atomic<bool> Go{false};
    std::vector<std::thread> Threads;
    for (size_t T = 0; T < Jobs.size(); ++T)
      Threads.emplace_back([&, T] {
        while (!Go.load(std::memory_order_acquire))
          std::this_thread::yield();
        Parallel[T] = analyzeRobustness(Fresh, Jobs[T].Region, K, Jobs[T].Spec);
      });
    Go.store(true, std::memory_order_release);
    for (std::thread &Th : Threads)
      Th.join();
    for (size_t T = 0; T < Jobs.size(); ++T) {
      EXPECT_EQ(Parallel[T].Verified, Serial[T].Verified) << "job " << T;
      EXPECT_EQ(bitsOf(Parallel[T].Margin), bitsOf(Serial[T].Margin))
          << "job " << T;
    }
  }
}
