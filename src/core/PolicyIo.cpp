//===- PolicyIo.cpp - Verification policy (de)serialization -------------------===//

#include "core/PolicyIo.h"

#include "support/TextCodec.h"

#include <ostream>

using namespace charon;

static std::string policyText(const VerificationPolicy &Policy) {
  TextWriter W;
  W << "charon-policy 1 " << PolicyNumOutputs << " " << PolicyNumFeatures
    << "\n";
  const Matrix &Theta = Policy.parameters();
  for (size_t R = 0; R < Theta.rows(); ++R) {
    for (size_t C = 0; C < Theta.cols(); ++C)
      W << Theta(R, C) << " ";
    W << "\n";
  }
  return W.take();
}

static std::optional<VerificationPolicy> parsePolicy(std::string_view Text) {
  TextReader R(Text);
  size_t Rows = 0, Cols = 0;
  if (!R.header("charon-policy", 1) || !R.integer(Rows) || !R.integer(Cols) ||
      Rows != PolicyNumOutputs || Cols != PolicyNumFeatures)
    return std::nullopt;
  Matrix Theta(Rows, Cols);
  for (size_t Row = 0; Row < Rows; ++Row)
    if (!R.f64s(Theta.row(Row), Cols))
      return std::nullopt;
  return VerificationPolicy(std::move(Theta));
}

void charon::savePolicy(const VerificationPolicy &Policy, std::ostream &Os) {
  Os << policyText(Policy);
}

std::optional<VerificationPolicy> charon::loadPolicy(std::istream &Is) {
  return parsePolicy(readStream(Is));
}

bool charon::savePolicyFile(const VerificationPolicy &Policy,
                            const std::string &Path) {
  return saveFile(Path, policyText(Policy));
}

std::optional<VerificationPolicy>
charon::loadPolicyFile(const std::string &Path) {
  return loadFile(Path, parsePolicy);
}
