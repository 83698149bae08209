//===- Repro.cpp - Self-contained replayable fuzz repro files -----------------===//

#include "fuzz/Repro.h"

#include "core/PropertyIo.h"
#include "fuzz/Campaign.h"
#include "support/Random.h"
#include "support/TextCodec.h"

#include <ostream>

using namespace charon;

static std::string reproText(const FuzzRepro &Repro) {
  TextWriter W;
  W << "charon-fuzz-repro 1\n";
  W << "campaign-seed " << Repro.CampaignSeed << "\n";
  W << "case " << Repro.CaseIndex << "\n";
  W << "expect " << (Repro.ExpectViolation ? "violation" : "clean") << "\n";
  W << "oracle " << (Repro.Oracle.empty() ? "-" : Repro.Oracle) << "\n";
  W << "message " << (Repro.Message.empty() ? "-" : Repro.Message) << "\n";
  W << "samples " << Repro.Cfg.ContainmentSamples << "\n";
  W << "subregions " << Repro.Cfg.SubregionTrials << "\n";
  W << "tolerance " << Repro.Cfg.Tolerance << "\n";
  W << "delta " << Repro.Cfg.Delta << "\n";
  W << "budget " << Repro.Cfg.VerifyBudgetSeconds << "\n";
  W << "verifier-seed " << Repro.Cfg.VerifierSeed << "\n";
  W << "inject " << Repro.Cfg.InjectTighten << "\n";
  W << "domains " << Repro.Domains.size();
  for (const DomainSpec &D : Repro.Domains)
    W << " " << toString(D);
  W << "\n";
  W << "network " << serializeNetworkSpec(Repro.Net)
    << serializeProperty(Repro.Prop);
  return W.take();
}

static std::optional<FuzzRepro> parseRepro(std::string_view Text) {
  TextReader R(Text);
  FuzzRepro Repro;
  OracleConfig &Cfg = Repro.Cfg;
  std::string_view Expect, Oracle;
  if (!R.header("charon-fuzz-repro", 1) || !R.keyword("campaign-seed") ||
      !R.integer(Repro.CampaignSeed) || !R.keyword("case") ||
      !R.integer(Repro.CaseIndex) || Repro.CaseIndex < 0 ||
      !R.keyword("expect") || !R.token(Expect) ||
      (Expect != "violation" && Expect != "clean") || !R.keyword("oracle") ||
      !R.token(Oracle) || !R.keyword("message"))
    return std::nullopt;
  Repro.ExpectViolation = Expect == "violation";
  if (Oracle != "-")
    Repro.Oracle = Oracle;
  std::string_view Message = R.restOfLine();
  if (!Message.empty() && Message.front() == ' ')
    Message.remove_prefix(1);
  if (Message != "-")
    Repro.Message = Message;

  size_t NumDomains = 0;
  if (!R.keyword("samples") || !R.integer(Cfg.ContainmentSamples) ||
      Cfg.ContainmentSamples < 0 || !R.keyword("subregions") ||
      !R.integer(Cfg.SubregionTrials) || Cfg.SubregionTrials < 0 ||
      !R.keyword("tolerance") || !R.f64(Cfg.Tolerance) ||
      !(Cfg.Tolerance >= 0.0) || !R.keyword("delta") || !R.f64(Cfg.Delta) ||
      !R.keyword("budget") || !R.f64(Cfg.VerifyBudgetSeconds) ||
      !R.keyword("verifier-seed") || !R.integer(Cfg.VerifierSeed) ||
      !R.keyword("inject") || !R.f64(Cfg.InjectTighten) ||
      !R.keyword("domains") || !R.integer(NumDomains) || NumDomains > 64)
    return std::nullopt;
  for (size_t I = 0; I < NumDomains; ++I) {
    std::string_view Token;
    std::optional<DomainSpec> D;
    if (!R.token(Token) || !(D = parseDomainSpec(std::string(Token))))
      return std::nullopt;
    Repro.Domains.push_back(*D);
  }

  if (!R.keyword("network") || !readNetworkSpec(R, Repro.Net))
    return std::nullopt;
  std::optional<RobustnessProperty> Prop = readProperty(R);
  if (!Prop)
    return std::nullopt;
  Repro.Prop = std::move(*Prop);

  if (Repro.Prop.Region.dim() != specInputSize(Repro.Net) ||
      Repro.Prop.TargetClass >= specOutputSize(Repro.Net))
    return std::nullopt;
  return Repro;
}

void charon::saveRepro(const FuzzRepro &Repro, std::ostream &Os) {
  Os << reproText(Repro);
}

std::optional<FuzzRepro> charon::loadRepro(std::istream &Is) {
  return parseRepro(readStream(Is));
}

bool charon::saveReproFile(const FuzzRepro &Repro, const std::string &Path) {
  return saveFile(Path, reproText(Repro));
}

std::optional<FuzzRepro> charon::loadReproFile(const std::string &Path) {
  return loadFile(Path, parseRepro);
}

ReplayResult charon::replayRepro(const FuzzRepro &Repro) {
  // Mirror the campaign's RNG discipline exactly: the generation fork is
  // burned (the repro carries the generated artifacts), the oracle fork is
  // replayed.
  Rng Base = caseRng(Repro.CampaignSeed, Repro.CaseIndex);
  Rng GenR = Base.fork();
  (void)GenR;
  Rng OracleR = Base.fork();

  Network Net = buildNetwork(Repro.Net);
  std::vector<DomainSpec> Domains =
      Repro.Domains.empty() ? defaultFuzzDomains() : Repro.Domains;

  ReplayResult Result;
  Result.Violations =
      runFuzzCase(Net, Repro.Prop, Domains, Repro.Cfg, OracleR);
  Result.ViolationReproduced = !Result.Violations.empty();
  Result.MatchesExpectation =
      Result.ViolationReproduced == Repro.ExpectViolation;
  return Result;
}
