//===- Checkpoint.cpp - Resumable proof-search checkpoints --------------------===//

#include "search/Checkpoint.h"

#include "support/TextCodec.h"

#include <set>

using namespace charon;

std::string charon::serializeCheckpoint(const SearchCheckpoint &Cp) {
  TextWriter W;
  W << "charon-checkpoint 1\n";
  W << "order " << toString(Cp.Order) << "\n";
  W << "network " << Cp.NetworkFingerprint << " property " << Cp.PropertyDigest
    << " config " << Cp.ConfigDigest << "\n";
  W << "stats";
  for (size_t I = 0; I < 8; ++I)
    W << " " << Cp.Stats.*StatsCounters[I];
  W << " " << Cp.Stats.Seconds << "\n";
  size_t Dim = Cp.Open.empty() ? 0 : Cp.Open.front().Region.dim();
  W << "dim " << Dim << "\n";
  W << "open " << Cp.Open.size() << "\n";
  for (const CheckpointNode &N : Cp.Open) {
    W << "node ";
    W.path(N.Path) << " " << N.Priority << "\n";
    W << "lower";
    W.values(N.Region.lower().data(), N.Region.dim());
    W << "\nupper";
    W.values(N.Region.upper().data(), N.Region.dim());
    W << "\nwarm " << N.Warm.size();
    W.values(N.Warm.data(), N.Warm.size());
    W << "\n";
  }
  W << "end\n";
  return W.take();
}

std::optional<SearchCheckpoint>
charon::deserializeCheckpoint(std::string_view Text) {
  TextReader R(Text);
  SearchCheckpoint Cp;
  std::string_view Order;
  if (!R.header("charon-checkpoint", 1) || !R.keyword("order") ||
      !R.token(Order))
    return std::nullopt;
  if (Order == "lifo")
    Cp.Order = FrontierOrder::Lifo;
  else if (Order == "best-first")
    Cp.Order = FrontierOrder::BestFirst;
  else
    return std::nullopt;

  VerifyStats &S = Cp.Stats;
  size_t Dim = 0, Count = 0;
  if (!R.keyword("network") || !R.integer(Cp.NetworkFingerprint) ||
      !R.keyword("property") || !R.integer(Cp.PropertyDigest) ||
      !R.keyword("config") || !R.integer(Cp.ConfigDigest) ||
      !R.keyword("stats"))
    return std::nullopt;
  for (size_t I = 0; I < 8; ++I)
    if (!R.integer(S.*StatsCounters[I]))
      return std::nullopt;
  if (!R.f64(S.Seconds) || !R.keyword("dim") || !R.count(Dim) ||
      !R.keyword("open") || !R.count(Count))
    return std::nullopt;
  if (Count > 0 && Dim == 0)
    return std::nullopt;

  // Node paths identify frontier entries (they seed the path-derived RNG on
  // resume); a duplicate means a corrupted or hand-forged file, not a
  // frontier the engine could ever have saved.
  std::set<std::vector<uint8_t>> SeenPaths;
  for (size_t N = 0; N < Count; ++N) {
    CheckpointNode Node;
    std::vector<double> Lo, Hi, Warm;
    size_t WarmSize = 0;
    if (!R.keyword("node") || !R.path(Node.Path) ||
        !SeenPaths.insert(Node.Path).second || !R.f64(Node.Priority) ||
        !R.box(Dim, Lo, Hi) || !R.keyword("warm") || !R.integer(WarmSize) ||
        (WarmSize != 0 && WarmSize != Dim) || !R.values(WarmSize, Warm))
      return std::nullopt;
    Node.Region = Box(Vector(std::move(Lo)), Vector(std::move(Hi)));
    Node.Warm = Vector(std::move(Warm));
    Cp.Open.push_back(std::move(Node));
  }
  if (!R.keyword("end"))
    return std::nullopt;
  return Cp;
}

bool charon::saveCheckpointFile(const SearchCheckpoint &Cp,
                                const std::string &Path) {
  return saveFile(Path, serializeCheckpoint(Cp));
}

std::optional<SearchCheckpoint>
charon::loadCheckpointFile(const std::string &Path) {
  return loadFile(Path, deserializeCheckpoint);
}
