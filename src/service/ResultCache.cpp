//===- ResultCache.cpp - LRU verification-result cache ------------------------===//

#include "service/ResultCache.h"

#include "cert/Certificate.h"
#include "search/Checkpoint.h"
#include "support/TextCodec.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace charon;

ResultCache::ResultCache(size_t Capacity) : Cap(std::max<size_t>(1, Capacity)) {}

ResultCache::~ResultCache() {
  if (StoreFd >= 0)
    ::close(StoreFd); // releases the flock
}

void ResultCache::touch(EntryList::iterator It) {
  Entries.splice(Entries.begin(), Entries, It);
}

std::optional<VerifyResult> ResultCache::lookup(const CacheKey &Key,
                                                const Box &Region,
                                                size_t TargetClass) {
  std::lock_guard<std::mutex> Lock(Mutex);

  auto It = Index.find(Key);
  if (It != Index.end()) {
    touch(It->second);
    ++Counters.ExactHits;
    return It->second->Result;
  }

  // Subsumption scan: any Verified entry for the same network/config whose
  // region contains the query answers Verified for the subregion. Linear in
  // the cache size, but each entry check is a cheap bounds comparison and
  // the scan only runs on exact misses.
  for (auto EIt = Entries.begin(); EIt != Entries.end(); ++EIt) {
    if (EIt->Result.Result != Outcome::Verified)
      continue;
    if (EIt->Key.NetworkFingerprint != Key.NetworkFingerprint ||
        EIt->Key.ConfigDigest != Key.ConfigDigest)
      continue;
    if (EIt->TargetClass != TargetClass ||
        EIt->Region.dim() != Region.dim() || !EIt->Region.contains(Region))
      continue;
    touch(EIt);
    ++Counters.SubsumptionHits;
    // Report the covering proof's verdict without its counters: this query
    // cost nothing, and the covering region's stats would misattribute
    // work to it.
    VerifyResult R;
    R.Result = Outcome::Verified;
    return R;
  }

  ++Counters.Misses;
  return std::nullopt;
}

void ResultCache::insertLocked(const CacheKey &Key, const Box &Region,
                               size_t TargetClass, const VerifyResult &Result,
                               bool FromDisk) {
  auto It = Index.find(Key);
  if (It != Index.end()) {
    It->second->Region = Region;
    It->second->TargetClass = TargetClass;
    It->second->Result = Result;
    touch(It->second);
  } else {
    Entries.push_front({Key, Region, TargetClass, Result});
    Index.emplace(Key, Entries.begin());
    while (Entries.size() > Cap) {
      Index.erase(Entries.back().Key);
      Entries.pop_back();
      ++Counters.Evictions;
    }
  }
  if (FromDisk) {
    ++Counters.Loaded;
    return;
  }
  ++Counters.Inserts;
  if (StoreFd >= 0)
    persistLocked({Key, Region, TargetClass, Result});
}

void ResultCache::insert(const CacheKey &Key, const Box &Region,
                         size_t TargetClass, const VerifyResult &Result) {
  std::lock_guard<std::mutex> Lock(Mutex);
  insertLocked(Key, Region, TargetClass, Result, /*FromDisk=*/false);
}

std::optional<VerifyResult>
ResultCache::lookupCertified(uint64_t NetworkFingerprint,
                             uint64_t PropertyDigest,
                             uint64_t ExcludeConfigDigest) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto EIt = Entries.begin(); EIt != Entries.end(); ++EIt) {
    if (!EIt->Result.Certificate)
      continue;
    if (EIt->Result.Result == Outcome::Timeout)
      continue;
    if (EIt->Key.NetworkFingerprint != NetworkFingerprint ||
        EIt->Key.PropertyDigest != PropertyDigest ||
        EIt->Key.ConfigDigest == ExcludeConfigDigest)
      continue;
    touch(EIt);
    return EIt->Result;
  }
  return std::nullopt;
}

void ResultCache::noteCertifiedHit() {
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Counters.CertifiedHits;
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters;
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.size();
}

void ResultCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entries.clear();
  Index.clear();
}

//===----------------------------------------------------------------------===//
// Persistence
//
// Record grammar (text; doubles at 17 significant digits, outer blocks
// byte-counted so nested serialized forms need no line-level escaping):
//
//   entry <netfp> <propdigest> <configdigest> <class>
//   region <dim>
//   lower <dim values>
//   upper <dim values>
//   result <outcome> <objective>
//   cex <m> [<m values>]
//   stats <12 counters> <seconds>
//   cert <bytes>\n<raw certificate text>
//   checkpoint <bytes>\n<raw checkpoint text>
//   end
//
// The file opens with "charon-cache 1". Records are replayed in file
// order on attach, so a later record for the same key wins — re-inserts
// append rather than rewrite, keeping the writer a single O_APPEND
// syscall with no index maintenance. Appends are flushed but not fsynced:
// the store survives process exits, and a crash mid-append costs exactly
// the torn record (truncated on the next attach), never the file.
//===----------------------------------------------------------------------===//

namespace {

constexpr const char *CacheMagic = "charon-cache 1\n";

std::string recordText(const CacheKey &Key, const Box &Region,
                       size_t TargetClass, const VerifyResult &R) {
  TextWriter W;
  W << "entry " << Key.NetworkFingerprint << " " << Key.PropertyDigest << " "
    << Key.ConfigDigest << " " << TargetClass << "\n";
  W << "region " << Region.dim() << "\n";
  W << "lower";
  W.values(Region.lower().data(), Region.dim());
  W << "\nupper";
  W.values(Region.upper().data(), Region.dim());
  W << "\nresult " << toString(R.Result) << " " << R.ObjectiveAtCex << "\n";
  W << "cex " << R.Counterexample.size();
  W.values(R.Counterexample.data(), R.Counterexample.size());
  W << "\nstats";
  for (long VerifyStats::*Counter : StatsCounters)
    W << " " << R.Stats.*Counter;
  W << " " << R.Stats.Seconds << "\n";
  std::string Cert = R.Certificate ? serializeCertificate(*R.Certificate) : "";
  W << "cert " << Cert.size() << "\n" << Cert;
  std::string Cp = R.Checkpoint ? serializeCheckpoint(*R.Checkpoint) : "";
  W << "checkpoint " << Cp.size() << "\n" << Cp;
  W << "end\n";
  return W.take();
}

struct StoreRecord {
  CacheKey Key;
  Box Region;
  size_t TargetClass = 0;
  VerifyResult Result;
};

/// Reads "<keyword> <bytes>\n<block>" and parses a non-empty block with
/// \p Parse into \p Out; an empty block leaves \p Out null.
template <class T, class ParseFn>
bool readEmbedded(TextReader &R, const char *Keyword, ParseFn Parse,
                  std::shared_ptr<const T> &Out) {
  size_t Bytes = 0;
  std::string_view Block;
  if (!R.keyword(Keyword) || !R.integer(Bytes) || !R.newline() ||
      !R.block(Bytes, Block))
    return false;
  if (Block.empty())
    return true;
  std::optional<T> Parsed = Parse(Block);
  if (!Parsed)
    return false;
  Out = std::make_shared<const T>(std::move(*Parsed));
  return true;
}

/// Parses one record at the reader (in line mode); false leaves the reader
/// inside an unusable tail (the caller truncates to the last good offset).
bool parseRecord(TextReader &R, StoreRecord &Rec) {
  size_t Dim = 0, CexSize = 0;
  std::vector<double> Lo, Hi, Cex;
  std::string_view OutcomeName;
  VerifyResult &Res = Rec.Result;
  if (!R.keyword("entry") || !R.integer(Rec.Key.NetworkFingerprint) ||
      !R.integer(Rec.Key.PropertyDigest) || !R.integer(Rec.Key.ConfigDigest) ||
      !R.integer(Rec.TargetClass) || !R.newline() || !R.keyword("region") ||
      !R.count(Dim) || !R.newline() || !R.box(Dim, Lo, Hi) ||
      !R.keyword("result") || !R.token(OutcomeName))
    return false;
  Rec.Region = Box(Vector(std::move(Lo)), Vector(std::move(Hi)));
  if (OutcomeName == "verified")
    Res.Result = Outcome::Verified;
  else if (OutcomeName == "falsified")
    Res.Result = Outcome::Falsified;
  else if (OutcomeName == "timeout")
    Res.Result = Outcome::Timeout;
  else
    return false;

  if (!R.f64(Res.ObjectiveAtCex) || !R.newline() || !R.keyword("cex") ||
      !R.integer(CexSize) || !R.values(CexSize, Cex) || !R.newline() ||
      !R.keyword("stats"))
    return false;
  Res.Counterexample = Vector(std::move(Cex));
  for (long VerifyStats::*Counter : StatsCounters)
    if (!R.integer(Res.Stats.*Counter))
      return false;
  if (!R.f64(Res.Stats.Seconds) || !R.newline())
    return false;

  return readEmbedded(R, "cert", deserializeCertificate, Res.Certificate) &&
         readEmbedded(R, "checkpoint", deserializeCheckpoint,
                      Res.Checkpoint) &&
         R.keyword("end") && R.newline();
}

bool writeAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::write(Fd, Data.data() + Off, Data.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

} // namespace

bool ResultCache::attachFile(const std::string &Path) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (StoreFd >= 0)
    return false; // already attached

  int Fd = ::open(Path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (Fd < 0)
    return false;
  auto Refuse = [Fd] {
    ::close(Fd); // releases the flock
    return false;
  };
  if (::flock(Fd, LOCK_EX | LOCK_NB) != 0)
    return Refuse();

  // Read the existing contents (the lock is held, nobody else writes).
  std::optional<std::string> Existing = readFile(Path);
  if (!Existing)
    return Refuse();
  std::string_view Text = *Existing;
  size_t MagicLen = std::strlen(CacheMagic);
  if (Text.empty()) {
    if (!writeAll(Fd, CacheMagic))
      return Refuse();
  } else if (Text.substr(0, MagicLen) != CacheMagic) {
    return Refuse(); // Not our file: refuse rather than clobber it.
  } else {
    TextReader R(Text.substr(MagicLen), /*LineMode=*/true);
    size_t GoodEnd = MagicLen;
    StoreRecord Rec;
    while (MagicLen + R.offset() < Text.size() && parseRecord(R, Rec)) {
      insertLocked(Rec.Key, Rec.Region, Rec.TargetClass, Rec.Result,
                   /*FromDisk=*/true);
      GoodEnd = MagicLen + R.offset();
      Rec = StoreRecord();
    }
    // Drop a torn or foreign tail so future appends start clean.
    if (GoodEnd < Text.size() &&
        ::ftruncate(Fd, static_cast<off_t>(GoodEnd)) != 0)
      return Refuse();
  }

  StoreFd = Fd;
  return true;
}

bool ResultCache::persistent() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return StoreFd >= 0;
}

void ResultCache::persistLocked(const Entry &E) {
  std::string Rec = recordText(E.Key, E.Region, E.TargetClass, E.Result);
  // A record the reader would reject (a non-finite objective or margin
  // from a network whose arithmetic overflows) stays memory-only: on the
  // next attach it would truncate every record after it.
  TextReader Check(Rec, /*LineMode=*/true);
  StoreRecord Parsed;
  if (!parseRecord(Check, Parsed))
    return;
  // Best-effort: a full disk degrades to a memory-only cache for this
  // record; soundness never depends on the store being complete.
  writeAll(StoreFd, Rec);
}
