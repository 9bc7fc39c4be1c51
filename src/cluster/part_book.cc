#include "part_book.hh"

#include "obs/observer.hh"

namespace deeprecsys {

obs::PartStage
stageOf(PartRec::Kind kind)
{
    switch (kind) {
      case PartRec::Kind::Whole:    return obs::PartStage::Whole;
      case PartRec::Kind::FanEmb:   return obs::PartStage::FanEmb;
      case PartRec::Kind::FanDense: return obs::PartStage::FanDense;
    }
    return obs::PartStage::Whole;
}

} // namespace deeprecsys
