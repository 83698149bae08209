//===- Trace.cpp - Structured proof-search trace events -----------------------===//

#include "search/Trace.h"

#include "support/JsonLine.h"

#include <memory>
#include <mutex>
#include <ostream>
#include <string_view>

using namespace charon;

std::string charon::traceEventToJson(const TraceEvent &Event) {
  json::ObjectWriter W;
  if (Event.Kind && std::string_view(Event.Kind) == "cegar_round") {
    W.str("kind", "cegar_round")
        .num("round", Event.Round)
        .num("abstract_neurons", static_cast<double>(Event.AbstractNeurons))
        .num("original_neurons", static_cast<double>(Event.OriginalNeurons))
        .num("spurious", static_cast<double>(Event.SpuriousCexes));
  } else {
    W.str("path", Event.Path)
        .num("depth", Event.Depth)
        .num("diameter", Event.Diameter)
        .num("pgd_objective", Event.PgdObjective);
    if (Event.DomainChosen)
      W.str("domain", toString(DomainSpec{Event.Domain.Base, 1}))
          .num("disjuncts", Event.Domain.Disjuncts);
    if (Event.MarginKnown)
      W.num("margin", Event.Margin);
  }
  return W.str("outcome", Event.Outcome).num("seconds", Event.Seconds).done();
}

TraceSink charon::makeJsonlTraceSink(std::ostream &Os) {
  auto Mutex = std::make_shared<std::mutex>();
  return [&Os, Mutex](const TraceEvent &Event) {
    std::string Line = traceEventToJson(Event);
    std::lock_guard<std::mutex> Lock(*Mutex);
    Os << Line << "\n";
  };
}
