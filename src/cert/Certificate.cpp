//===- Certificate.cpp - Serializable proof certificates ----------------------===//

#include "cert/Certificate.h"

#include "core/Digest.h"
#include "core/Property.h"
#include "search/ProofTree.h"
#include "support/TextCodec.h"

#include <array>
#include <cassert>
#include <set>
#include <utility>

using namespace charon;

const char *charon::toString(CertNodeKind K) {
  switch (K) {
  case CertNodeKind::Split:
    return "split";
  case CertNodeKind::Verified:
    return "verified";
  case CertNodeKind::Falsified:
    return "falsified";
  case CertNodeKind::Pruned:
    return "pruned";
  }
  return "?";
}

namespace {

/// Lowercase format keyword of a base domain (distinct from the
/// human-facing toString(DomainSpec), which certificates must not depend
/// on: "Zonotope^2" would collide with the whitespace-tokenized parser).
constexpr std::pair<BaseDomainKind, std::string_view> DomainKeywords[] = {
    {BaseDomainKind::Interval, "interval"},
    {BaseDomainKind::Zonotope, "zonotope"},
    {BaseDomainKind::SymbolicInterval, "symbolic-interval"},
    {BaseDomainKind::Polyhedra, "polyhedra"}};

std::string_view domainKeyword(BaseDomainKind B) {
  for (const auto &[Kind, Word] : DomainKeywords)
    if (Kind == B)
      return Word;
  return "?";
}

bool parseDomainKeyword(std::string_view Token, BaseDomainKind &Out) {
  for (const auto &[Kind, Word] : DomainKeywords)
    if (Word == Token) {
      Out = Kind;
      return true;
    }
  return false;
}

ProofCertificate certificateShell(const Network &Net,
                                  const RobustnessProperty &Prop,
                                  const VerifierConfig &Config,
                                  Outcome Verdict) {
  ProofCertificate Cert;
  Cert.Verdict = Verdict;
  Cert.Delta = Config.Delta;
  Cert.NetworkFingerprint = fingerprintNetwork(Net);
  Cert.PropertyDigest = digestProperty(Prop);
  Cert.ConfigDigest = digestVerifierConfigSemantics(Config);
  Cert.Dim = Prop.Region.dim();
  Cert.TargetClass = Prop.TargetClass;
  return Cert;
}

} // namespace

std::optional<ProofCertificate>
charon::buildTreeCertificate(const Network &Net, const RobustnessProperty &Prop,
                             const VerifierConfig &Config, Outcome Verdict,
                             const ProofTree &Tree) {
  assert(Verdict != Outcome::Timeout && "only decided verdicts certify");
  assert(Tree.size() > 0 && Tree.node(0).Parent == InvalidNodeId &&
         Tree.node(0).PathPrefix.empty() &&
         "tree certificates need a materialized root (not a resumed run)");

  // Rebuild the child links (ProofNode stores only the parent) so the
  // nodes can be emitted in DFS order: ancestors first, lower half before
  // upper — the same total order the verdict-selection rule uses.
  std::vector<std::array<NodeId, 2>> Kids(
      Tree.size(), {InvalidNodeId, InvalidNodeId});
  for (NodeId Id = 1; Id < Tree.size(); ++Id) {
    const ProofNode &N = Tree.node(Id);
    Kids[N.Parent][N.ChildBit] = Id;
  }

  ProofCertificate Cert = certificateShell(Net, Prop, Config, Verdict);
  Cert.Nodes.reserve(Tree.size());
  std::vector<NodeId> Stack{0};
  while (!Stack.empty()) {
    NodeId Id = Stack.back();
    Stack.pop_back();
    const ProofNode &N = Tree.node(Id);

    CertNode Node;
    Node.Path = Tree.pathOf(Id);
    Node.Region = N.Region;
    switch (N.Status) {
    case NodeStatus::Split:
      Node.Kind = CertNodeKind::Split;
      Node.SplitDim = N.SplitDim;
      Node.SplitCut = N.SplitCut;
      Stack.push_back(Kids[Id][1]);
      Stack.push_back(Kids[Id][0]);
      break;
    case NodeStatus::Verified:
      if (N.MarginKnown && N.Margin > 0.0) {
        Node.Kind = CertNodeKind::Verified;
        Node.Domain = N.Domain;
        Node.Margin = N.Margin;
      } else if (Verdict == Outcome::Falsified) {
        // A CompleteFallback solver call proved this leaf; that cannot be
        // re-derived by abstract replay, but under a Falsified verdict the
        // leaf carries no evidentiary weight — record it unjustified.
        Node.Kind = CertNodeKind::Pruned;
      } else {
        return std::nullopt;
      }
      break;
    case NodeStatus::Falsified:
      if (!N.Cex.empty()) {
        Node.Kind = CertNodeKind::Falsified;
        Node.Cex = N.Cex;
        Node.CexObjective = N.CexObjective;
      } else {
        Node.Kind = CertNodeKind::Pruned;
      }
      break;
    case NodeStatus::Open:
    case NodeStatus::Pruned:
      Node.Kind = CertNodeKind::Pruned;
      break;
    }
    Cert.Nodes.push_back(std::move(Node));
  }
  return Cert;
}

ProofCertificate charon::buildFalsifiedCertificate(
    const Network &Net, const RobustnessProperty &Prop,
    const VerifierConfig &Config, const Vector &Cex, double CexObjective) {
  ProofCertificate Cert =
      certificateShell(Net, Prop, Config, Outcome::Falsified);
  CertNode Root;
  Root.Region = Prop.Region;
  Root.Kind = CertNodeKind::Falsified;
  Root.Cex = Cex;
  Root.CexObjective = CexObjective;
  Cert.Nodes.push_back(std::move(Root));
  return Cert;
}

std::string charon::serializeCertificate(const ProofCertificate &Cert) {
  TextWriter W;
  W << "charon-cert 1\n";
  W << "verdict "
    << (Cert.Verdict == Outcome::Verified ? "verified" : "falsified") << "\n";
  W << "network " << Cert.NetworkFingerprint << " property "
    << Cert.PropertyDigest << " config " << Cert.ConfigDigest << "\n";
  W << "delta " << Cert.Delta << "\n";
  W << "dim " << Cert.Dim << " class " << Cert.TargetClass << "\n";
  W << "nodes " << Cert.Nodes.size() << "\n";
  for (const CertNode &N : Cert.Nodes) {
    W << "node ";
    W.path(N.Path) << " " << toString(N.Kind);
    switch (N.Kind) {
    case CertNodeKind::Split:
      W << " " << N.SplitDim << " " << N.SplitCut;
      break;
    case CertNodeKind::Verified:
      W << " " << domainKeyword(N.Domain.Base) << " " << N.Domain.Disjuncts
        << " " << N.Margin;
      break;
    case CertNodeKind::Falsified:
      W << " " << N.CexObjective;
      break;
    case CertNodeKind::Pruned:
      break;
    }
    W << "\nlower";
    W.values(N.Region.lower().data(), N.Region.dim());
    W << "\nupper";
    W.values(N.Region.upper().data(), N.Region.dim());
    W << "\n";
    if (N.Kind == CertNodeKind::Falsified) {
      W << "cex";
      W.values(N.Cex.data(), N.Cex.size());
      W << "\n";
    }
  }
  W << "end\n";
  return W.take();
}

std::optional<ProofCertificate>
charon::deserializeCertificate(std::string_view Text) {
  TextReader R(Text);
  ProofCertificate Cert;
  std::string_view Verdict;
  if (!R.header("charon-cert", 1) || !R.keyword("verdict") ||
      !R.token(Verdict))
    return std::nullopt;
  if (Verdict == "verified")
    Cert.Verdict = Outcome::Verified;
  else if (Verdict == "falsified")
    Cert.Verdict = Outcome::Falsified;
  else
    return std::nullopt;

  size_t Count = 0;
  if (!R.keyword("network") || !R.integer(Cert.NetworkFingerprint) ||
      !R.keyword("property") || !R.integer(Cert.PropertyDigest) ||
      !R.keyword("config") || !R.integer(Cert.ConfigDigest) ||
      !R.keyword("delta") || !R.f64(Cert.Delta) || !R.keyword("dim") ||
      !R.count(Cert.Dim) || !R.keyword("class") ||
      !R.integer(Cert.TargetClass) || !R.keyword("nodes") || !R.count(Count))
    return std::nullopt;
  if (Count > 0 && Cert.Dim == 0)
    return std::nullopt;

  std::set<std::vector<uint8_t>> Seen;
  for (size_t N = 0; N < Count; ++N) {
    CertNode Node;
    std::string_view Kind;
    // Two justifications for the same subregion make the certificate
    // ambiguous; reject rather than pick one.
    if (!R.keyword("node") || !R.path(Node.Path) ||
        !Seen.insert(Node.Path).second || !R.token(Kind))
      return std::nullopt;
    if (Kind == "split") {
      Node.Kind = CertNodeKind::Split;
      if (!R.integer(Node.SplitDim) || !R.f64(Node.SplitCut) ||
          Node.SplitDim >= Cert.Dim)
        return std::nullopt;
    } else if (Kind == "verified") {
      Node.Kind = CertNodeKind::Verified;
      // Only domains the analyzer can build: 1..64 disjuncts (the fuzz
      // domain-spec bound), and no powerset over symbolic intervals.
      std::string_view Domain;
      DomainSpec &D = Node.Domain;
      if (!R.token(Domain) || !parseDomainKeyword(Domain, D.Base) ||
          !R.integer(D.Disjuncts) || !R.f64(Node.Margin) ||
          D.Disjuncts < 1 || D.Disjuncts > 64 ||
          (D.Base == BaseDomainKind::SymbolicInterval && D.Disjuncts > 1))
        return std::nullopt;
    } else if (Kind == "falsified") {
      Node.Kind = CertNodeKind::Falsified;
      if (!R.f64(Node.CexObjective))
        return std::nullopt;
    } else if (Kind == "pruned") {
      Node.Kind = CertNodeKind::Pruned;
    } else {
      return std::nullopt;
    }

    std::vector<double> Lo, Hi, Cex;
    if (!R.box(Cert.Dim, Lo, Hi))
      return std::nullopt;
    Node.Region = Box(Vector(std::move(Lo)), Vector(std::move(Hi)));
    if (Node.Kind == CertNodeKind::Falsified) {
      if (!R.keyword("cex") || !R.values(Cert.Dim, Cex))
        return std::nullopt;
      Node.Cex = Vector(std::move(Cex));
    }
    Cert.Nodes.push_back(std::move(Node));
  }
  if (!R.keyword("end"))
    return std::nullopt;
  return Cert;
}

bool charon::saveCertificateFile(const ProofCertificate &Cert,
                                 const std::string &Path) {
  return saveFile(Path, serializeCertificate(Cert));
}

std::optional<ProofCertificate>
charon::loadCertificateFile(const std::string &Path) {
  return loadFile(Path, deserializeCertificate);
}
