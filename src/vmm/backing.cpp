#include "vmm/backing.hpp"

#include <sys/mman.h>

#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace toma::vmm {

void ForwardTable::insert(void* old_p, void* new_p) {
  sync::LockGuard<sync::SpinMutex> g(mu_);
  // Path-compress an existing chain r -> old_p into r -> new_p: the block
  // moved again before anyone freed it, and a stale free at r must land
  // on the *current* address in one hop.
  const auto rit = rev_.find(old_p);
  if (rit != rev_.end()) {
    void* r = rit->second;
    rev_.erase(rit);
    fwd_[r] = new_p;
    rev_[new_p] = r;
    return;
  }
  fwd_[old_p] = new_p;
  rev_[new_p] = old_p;
  size_.store(fwd_.size(), std::memory_order_relaxed);
}

void* ForwardTable::on_free(void* p, bool* forwarded) {
  *forwarded = false;
  sync::LockGuard<sync::SpinMutex> g(mu_);
  const auto fit = fwd_.find(p);
  if (fit != fwd_.end()) {
    void* target = fit->second;
    rev_.erase(target);
    fwd_.erase(fit);
    size_.store(fwd_.size(), std::memory_order_relaxed);
    *forwarded = true;
    return target;
  }
  const auto rit = rev_.find(p);
  if (rit != rev_.end()) {
    // Dying under its new name: the old-address entry is now garbage and
    // must not survive to alias whatever reuses this slot.
    fwd_.erase(rit->second);
    rev_.erase(rit);
    size_.store(fwd_.size(), std::memory_order_relaxed);
  }
  return p;
}

void* ForwardTable::resolve(void* p) const {
  sync::LockGuard<sync::SpinMutex> g(mu_);
  const auto it = fwd_.find(p);
  return it != fwd_.end() ? it->second : p;
}

void ForwardTable::purge_range(const void* base, std::size_t len) {
  const auto lo = reinterpret_cast<std::uintptr_t>(base);
  const std::uintptr_t hi = lo + len;
  sync::LockGuard<sync::SpinMutex> g(mu_);
  for (auto it = fwd_.begin(); it != fwd_.end();) {
    const auto a = reinterpret_cast<std::uintptr_t>(it->first);
    if (a >= lo && a < hi) {
      rev_.erase(it->second);
      it = fwd_.erase(it);
    } else {
      ++it;
    }
  }
  size_.store(fwd_.size(), std::memory_order_relaxed);
}

BackingStore::BackingStore(const BackingConfig& cfg)
    : reserve_bytes_(cfg.reserve_bytes),
      chunk_bytes_(cfg.chunk_bytes),
      initial_chunks_(cfg.initial_chunks) {
  TOMA_ASSERT(util::is_pow2(reserve_bytes_));
  TOMA_ASSERT(util::is_pow2(chunk_bytes_));
  TOMA_ASSERT(chunk_bytes_ <= reserve_bytes_);
  chunk_count_ = static_cast<std::uint32_t>(reserve_bytes_ / chunk_bytes_);
  max_chunks_ = cfg.max_chunks == 0
                    ? chunk_count_
                    : (cfg.max_chunks < chunk_count_ ? cfg.max_chunks
                                                     : chunk_count_);
  TOMA_ASSERT(cfg.initial_chunks >= 1);
  TOMA_ASSERT(cfg.initial_chunks <= max_chunks_);
  mapped_.assign(chunk_count_, 0);
  states_ = std::make_unique<std::atomic<std::uint8_t>[]>(chunk_count_);
  for (std::uint32_t i = 0; i < chunk_count_; ++i) {
    states_[i].store(static_cast<std::uint8_t>(ChunkState::kLive),
                     std::memory_order_relaxed);
  }

  // Reserve twice the span PROT_NONE, then trim to a reserve_bytes-aligned
  // window — mmap only guarantees page alignment, and every consumer of
  // the pool relies on base % pool_bytes == 0 (block addresses inherit
  // their block-size alignment from it).
  const std::size_t span = reserve_bytes_ * 2;
  void* raw = ::mmap(nullptr, span, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  TOMA_ASSERT_MSG(raw != MAP_FAILED, "vmm address reservation failed");
  const auto addr = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t aligned = util::align_up(addr, reserve_bytes_);
  const std::size_t head = aligned - addr;
  const std::size_t tail = span - head - reserve_bytes_;
  if (head != 0) ::munmap(raw, head);
  if (tail != 0) {
    ::munmap(reinterpret_cast<void*>(aligned + reserve_bytes_), tail);
  }
  base_ = reinterpret_cast<void*>(aligned);

  for (std::uint32_t i = 0; i < cfg.initial_chunks; ++i) {
    const bool ok = map_chunk(i);
    TOMA_ASSERT_MSG(ok, "initial chunk mapping failed");
  }
}

BackingStore::~BackingStore() {
  if (base_ != nullptr) ::munmap(base_, reserve_bytes_);
}

bool BackingStore::map_chunk(std::uint32_t idx) {
  TOMA_ASSERT(idx < chunk_count_);
  if (mapped_[idx] != 0) return false;
  if (mapped_chunks_.load(std::memory_order_relaxed) >= max_chunks_) {
    return false;
  }
  const int rc =
      ::mprotect(chunk_addr(idx), chunk_bytes_, PROT_READ | PROT_WRITE);
  TOMA_ASSERT_MSG(rc == 0, "vmm chunk map (mprotect) failed");
  mapped_[idx] = 1;
  mapped_chunks_.fetch_add(1, std::memory_order_relaxed);
  // Any forward entries whose old addresses live here described blocks in
  // the chunk's *previous* life; the remapped range is fresh memory and a
  // stale entry would alias a new allocation.
  if (!fwd_.empty()) fwd_.purge_range(chunk_addr(idx), chunk_bytes_);
  set_state(idx, ChunkState::kLive);
  return true;
}

void* BackingStore::map_next() {
  if (mapped_chunks_.load(std::memory_order_relaxed) >= max_chunks_) {
    return nullptr;
  }
  for (std::uint32_t i = 0; i < chunk_count_; ++i) {
    if (mapped_[i] == 0) {
      const bool ok = map_chunk(i);
      TOMA_ASSERT(ok);
      st_.add(kGrows);
      return chunk_addr(i);
    }
  }
  return nullptr;
}

void BackingStore::unmap_chunk(std::uint32_t idx) {
  TOMA_ASSERT(idx < chunk_count_);
  TOMA_ASSERT_MSG(mapped_[idx] != 0, "unmap of an unmapped chunk");
  // DONTNEED returns the physical pages; the PROT_NONE re-protection
  // turns any stale-pointer touch into a fault instead of a silent read
  // of a zero page.
  ::madvise(chunk_addr(idx), chunk_bytes_, MADV_DONTNEED);
  const int rc = ::mprotect(chunk_addr(idx), chunk_bytes_, PROT_NONE);
  TOMA_ASSERT_MSG(rc == 0, "vmm chunk unmap (mprotect) failed");
  mapped_[idx] = 0;
  mapped_chunks_.fetch_sub(1, std::memory_order_relaxed);
  set_state(idx, ChunkState::kRetired);
  st_.add(kShrinks);
}

BackingStats BackingStore::stats() const {
  BackingStats s;
  s.grows = st_.sum(kGrows);
  s.shrinks = st_.sum(kShrinks);
  s.mapped_chunks = mapped_chunks();
  s.mapped_bytes = mapped_bytes();
  s.max_chunks = max_chunks_;
  s.chunk_bytes = chunk_bytes_;
  s.reserve_bytes = reserve_bytes_;
  return s;
}

}  // namespace toma::vmm
