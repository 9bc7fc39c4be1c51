#include "part_book.hh"

#include <algorithm>
#include <utility>

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

uint64_t
PartBook::push(PartRec rec)
{
    const uint64_t id = next_;
    if (id % kChunkParts == 0)
        openChunk(id / kChunkParts);
    next_++;
    at(id) = std::move(rec);
    peak_ = std::max(peak_, next_ - low_);
    return id;
}

void
PartBook::openChunk(uint64_t chunk)
{
    // Live chunks span [low_'s chunk, chunk]; the slot of a chunk a
    // full ring below is free to reuse once that chunk is wholly
    // retired. Otherwise double the ring, moving each live chunk to
    // its new slot (the chunks themselves, and so every reference
    // into them, stay put).
    const uint64_t low_chunk = low_ / kChunkParts;
    const uint64_t needed = chunk - low_chunk + 1;
    if (needed > ring_.size()) {
        size_t size = ring_.empty() ? 1 : ring_.size();
        while (size < needed)
            size *= 2;
        std::vector<std::unique_ptr<PartRec[]>> grown(size);
        for (uint64_t c = low_chunk; c < chunk; c++)
            grown[c & (size - 1)] = std::move(ring_[c & ringMask_]);
        ring_ = std::move(grown);
        ringMask_ = size - 1;
    }
    std::unique_ptr<PartRec[]>& slot = ring_[chunk & ringMask_];
    if (!slot)
        slot = std::make_unique<PartRec[]>(kChunkParts);
}

} // namespace deeprecsys
