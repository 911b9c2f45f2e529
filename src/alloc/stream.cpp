#include "alloc/stream.hpp"

#include "alloc/allocator.hpp"
#include "obs/telemetry.hpp"
#include "util/bitops.hpp"

namespace toma::alloc {

StreamSlot& StreamFrontEnd::slot_of(gpu::Stream& s) {
  sync::LockGuard<sync::SpinMutex> g(map_mu_);
  auto& slot = slots_[s.id()];
  if (slot == nullptr) slot = std::make_unique<StreamSlot>();
  return *slot;
}

void StreamFrontEnd::free_async(void* p, gpu::Stream& s) {
  StreamSlot& slot = slot_of(s);
  // Classify by the same alignment test free() routes on; the capacity
  // read is safe because the block is still allocated to the accounting.
  bool overflow;
  {
    sync::LockGuard<sync::SpinMutex> g(slot.mu_);
    if (util::is_aligned(p, kPageSize)) {
      slot.large_.emplace_back(p, alloc_->buddy().allocation_size(p));
    } else {
      const std::size_t cap = alloc_->ualloc().usable_size(p);
      slot.classes_[size_class_of(cap)].push_back(p);
    }
    slot.pending_ += 1;
    overflow = slot.pending_ >= kStreamPendingCap;
  }
  st_.add(kDeferred);
  if (overflow) {
    st_.add(kOverflowDrains);
    drain(slot);
  }
}

void* StreamFrontEnd::try_reuse(std::size_t effective, gpu::Stream& s) {
  StreamSlot* slot = nullptr;
  {
    sync::LockGuard<sync::SpinMutex> g(map_mu_);
    auto it = slots_.find(s.id());
    if (it != slots_.end()) slot = it->second.get();
  }
  void* p = nullptr;
  if (slot != nullptr) {
    sync::LockGuard<sync::SpinMutex> g(slot->mu_);
    if (effective <= kMaxUAllocSize) {
      auto& bucket = slot->classes_[size_class_of(effective)];
      if (!bucket.empty()) {
        p = bucket.back();
        bucket.pop_back();
      }
    } else {
      for (auto it = slot->large_.begin(); it != slot->large_.end(); ++it) {
        if (it->second == effective) {
          p = it->first;
          *it = slot->large_.back();
          slot->large_.pop_back();
          break;
        }
      }
    }
    if (p != nullptr) slot->pending_ -= 1;
  }
  st_.add(p != nullptr ? kReuseHits : kReuseMisses);
  return p;
}

std::size_t StreamFrontEnd::drain(StreamSlot& slot) {
  [[maybe_unused]] const std::uint64_t t0 = TOMA_NOW_NS();
  std::vector<void*> classes[kNumSizeClasses];
  std::vector<std::pair<void*, std::size_t>> large;
  {
    sync::LockGuard<sync::SpinMutex> g(slot.mu_);
    for (std::uint32_t c = 0; c < kNumSizeClasses; ++c) {
      classes[c].swap(slot.classes_[c]);
    }
    large.swap(slot.large_);
    slot.pending_ = 0;
  }
  // Back-to-back frees cluster the RCU barriers of bin unlink/retire, so
  // the conditional-barrier delegation collapses them into ~one grace
  // period for the whole batch.
  std::size_t n = 0;
  for (std::uint32_t c = 0; c < kNumSizeClasses; ++c) {
    for (void* p : classes[c]) {
      alloc_->free(p);
      ++n;
    }
  }
  for (const auto& [p, size] : large) {
    (void)size;
    alloc_->free(p);
    ++n;
  }
  if (n > 0) {
    auto& st = st_.local();
    st.add(kDrained, n);
    st.add(kDrainBatches);
    TOMA_HIST("pool.stream.drain_batch", n);
    TOMA_HIST("pool.stream.drain_ns", TOMA_NOW_NS() - t0);
  }
  return n;
}

std::size_t StreamFrontEnd::sync(gpu::Stream& s) {
  StreamSlot* slot = nullptr;
  {
    sync::LockGuard<sync::SpinMutex> g(map_mu_);
    auto it = slots_.find(s.id());
    if (it != slots_.end()) slot = it->second.get();
  }
  return slot != nullptr ? drain(*slot) : 0;
}

std::size_t StreamFrontEnd::sync_all() {
  std::vector<StreamSlot*> all;
  {
    sync::LockGuard<sync::SpinMutex> g(map_mu_);
    all.reserve(slots_.size());
    for (auto& [id, slot] : slots_) all.push_back(slot.get());
  }
  std::size_t n = 0;
  for (StreamSlot* slot : all) n += drain(*slot);
  return n;
}

std::size_t StreamFrontEnd::release_stream(gpu::Stream& s) {
  std::unique_ptr<StreamSlot> slot;
  {
    sync::LockGuard<sync::SpinMutex> g(map_mu_);
    auto it = slots_.find(s.id());
    if (it == slots_.end()) return 0;
    slot = std::move(it->second);
    slots_.erase(it);
  }
  return drain(*slot);
}

StreamFrontEndStats StreamFrontEnd::stats() const {
  StreamFrontEndStats st;
  st.deferred = st_.sum(kDeferred);
  st.reuse_hits = st_.sum(kReuseHits);
  st.reuse_misses = st_.sum(kReuseMisses);
  st.drained = st_.sum(kDrained);
  st.drain_batches = st_.sum(kDrainBatches);
  st.overflow_drains = st_.sum(kOverflowDrains);
  st.pending = st.deferred - st.drained - st.reuse_hits;
  return st;
}

}  // namespace toma::alloc
