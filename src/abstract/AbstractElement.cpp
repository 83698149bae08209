//===- AbstractElement.cpp - Abstract domain element interface --------------===//

#include "abstract/AbstractElement.h"

#include "nn/Conv2D.h"

using namespace charon;

AbstractElement::~AbstractElement() = default;

void AbstractElement::applyConv(const Conv2DLayer &L) {
  AffineView View = *L.affineForm();
  applyAffine(*View.W, *View.B);
}

Box AbstractElement::toBox() const {
  size_t N = dim();
  Vector Lo(N), Hi(N);
  for (size_t I = 0; I < N; ++I) {
    Lo[I] = lowerBound(I);
    Hi[I] = upperBound(I);
  }
  return Box(std::move(Lo), std::move(Hi));
}
