//===- PropertyIo.cpp - Robustness property (de)serialization -----------------===//

#include "core/PropertyIo.h"

#include "support/TextCodec.h"

#include <ostream>

using namespace charon;

std::string charon::serializeProperty(const RobustnessProperty &Prop) {
  const Box &Region = Prop.Region;
  TextWriter W;
  W << "charon-property 1\n";
  W << "name " << (Prop.Name.empty() ? "unnamed" : Prop.Name) << "\n";
  W << "target " << Prop.TargetClass << "\n";
  W << "dim " << Region.dim() << "\n";
  W << "lower";
  W.values(Region.lower().data(), Region.dim());
  W << "\nupper";
  W.values(Region.upper().data(), Region.dim());
  W << "\n";
  return W.take();
}

std::optional<RobustnessProperty> charon::readProperty(TextReader &R) {
  RobustnessProperty Prop;
  std::string_view Name;
  size_t Dim = 0;
  std::vector<double> Lo, Hi;
  if (!R.header("charon-property", 1) || !R.keyword("name") ||
      !R.token(Name) || !R.keyword("target") ||
      !R.integer(Prop.TargetClass) || !R.keyword("dim") || !R.count(Dim) ||
      Dim == 0 || !R.box(Dim, Lo, Hi))
    return std::nullopt;
  Prop.Name = Name;
  Prop.Region = Box(Vector(std::move(Lo)), Vector(std::move(Hi)));
  return Prop;
}

static std::optional<RobustnessProperty> parseProperty(std::string_view Text) {
  TextReader R(Text);
  return readProperty(R);
}

void charon::saveProperty(const RobustnessProperty &Prop, std::ostream &Os) {
  Os << serializeProperty(Prop);
}

std::optional<RobustnessProperty> charon::loadProperty(std::istream &Is) {
  return parseProperty(readStream(Is));
}

bool charon::savePropertyFile(const RobustnessProperty &Prop,
                              const std::string &Path) {
  return saveFile(Path, serializeProperty(Prop));
}

std::optional<RobustnessProperty>
charon::loadPropertyFile(const std::string &Path) {
  return loadFile(Path, parseProperty);
}
