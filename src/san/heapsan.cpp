#include "san/heapsan.hpp"

#include <cstring>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace toma::san {

using Guard = sync::LockGuard<sync::SpinMutex>;

HeapSan::HeapSan(HeapSanConfig cfg, ReleaseFn release)
    : cfg_(cfg), release_(std::move(release)) {
  TOMA_ASSERT_MSG(cfg_.redzone_bytes >= 8 && cfg_.redzone_bytes % 8 == 0,
                  "redzone must be a positive multiple of 8 bytes");
  TOMA_ASSERT(release_ != nullptr);
}

HeapSan::~HeapSan() = default;

void HeapSan::report(const BugReport& r) {
  static_assert(static_cast<int>(BugKind::kLeak) == kNumStats - kReports - 1);
  st_.add(kReports + static_cast<std::size_t>(r.kind));
  san::report(r);
}

BugReport HeapSan::make_report(BugKind kind, const void* user_ptr,
                               const Record& rec) const {
  BugReport r;
  r.kind = kind;
  r.user_ptr = user_ptr;
  r.base = rec.base;
  r.user_size = rec.user_size;
  r.capacity = rec.capacity;
  r.alloc_sm = rec.alloc_sm;
  r.alloc_warp = rec.alloc_warp;
  r.alloc_tick = rec.alloc_tick;
  r.alloc_seq = rec.alloc_seq;
  r.free_sm = rec.free_sm;
  r.free_warp = rec.free_warp;
  r.free_tick = rec.free_tick;
  return r;
}

void* HeapSan::on_alloc(void* base, std::size_t capacity,
                        std::size_t user_size) {
  const std::size_t rz = cfg_.redzone_bytes;
  TOMA_DASSERT(base != nullptr);
  TOMA_DASSERT(capacity >= user_size + 2 * rz);
  auto* b = static_cast<std::uint8_t*>(base);
  std::uint8_t* user = b + rz;
  std::memset(b, kRedzoneLeft, rz);
  if (cfg_.poison_on_alloc) std::memset(user, kAllocPoison, user_size);
  std::memset(user + user_size, kRedzoneRight, capacity - rz - user_size);

  Record rec;
  rec.base = base;
  rec.user_size = user_size;
  rec.capacity = capacity;
  rec.alloc_sm = obs::current_sm();
  rec.alloc_warp = obs::current_warp();
  rec.alloc_tick = obs::current_tick();
  rec.alloc_seq = alloc_seq_.fetch_add(1, std::memory_order_relaxed);

  Shard& sh = shards_[shard_of(user)];
  {
    Guard g(sh.mu);
    // The base is held until eviction erases its record, so the same user
    // address cannot be live twice.
    sh.blocks.insert_or_assign(user, rec);
  }
  live_blocks_.fetch_add(1, std::memory_order_acq_rel);
  live_bytes_.fetch_add(user_size, std::memory_order_relaxed);
  return user;
}

bool HeapSan::verify_redzones(const void* user_ptr, const Record& rec) {
  st_.add(kRedzoneChecks);
  const std::size_t rz = cfg_.redzone_bytes;
  const auto* base = static_cast<const std::uint8_t*>(rec.base);
  const auto* user = static_cast<const std::uint8_t*>(user_ptr);
  for (std::size_t i = 0; i < rz; ++i) {
    if (base[i] != kRedzoneLeft) {
      BugReport r = make_report(BugKind::kOob, user_ptr, rec);
      r.bad_offset = static_cast<std::ptrdiff_t>(i) -
                     static_cast<std::ptrdiff_t>(rz);
      r.expected = kRedzoneLeft;
      r.found = base[i];
      r.detail = "left redzone overwritten (underflow)";
      report(r);
      return false;
    }
  }
  const std::uint8_t* rend = base + rec.capacity;
  for (const std::uint8_t* q = user + rec.user_size; q < rend; ++q) {
    if (*q != kRedzoneRight) {
      BugReport r = make_report(BugKind::kOob, user_ptr, rec);
      r.bad_offset = q - user;
      r.expected = kRedzoneRight;
      r.found = *q;
      r.detail = "right redzone overwritten (overflow)";
      report(r);
      return false;
    }
  }
  return true;
}

bool HeapSan::verify_quarantined(const void* user_ptr, const Record& rec) {
  st_.add(kPoisonChecks);
  const auto* base = static_cast<const std::uint8_t*>(rec.base);
  const auto* user = static_cast<const std::uint8_t*>(user_ptr);
  const std::uint8_t* end = base + rec.capacity;
  for (const std::uint8_t* q = base; q < end; ++q) {
    const std::ptrdiff_t off = q - user;
    const std::uint8_t expected =
        off < 0 ? kRedzoneLeft
                : (static_cast<std::size_t>(off) < rec.user_size
                       ? kFreePoison
                       : kRedzoneRight);
    if (*q != expected) {
      BugReport r = make_report(BugKind::kUaf, user_ptr, rec);
      r.bad_offset = off;
      r.expected = expected;
      r.found = *q;
      r.detail = "quarantined block modified after free";
      report(r);
      return false;
    }
  }
  return true;
}

HeapSan::FreeResult HeapSan::on_free(void* user_ptr) {
  Shard& sh = shards_[shard_of(user_ptr)];
  Record rec;
  bool double_free = false;
  {
    Guard g(sh.mu);
    auto it = sh.blocks.find(user_ptr);
    if (it == sh.blocks.end()) return FreeResult::kUntracked;
    if (it->second.quarantined) {
      double_free = true;
      rec = it->second;
    } else {
      it->second.quarantined = true;
      it->second.free_sm = obs::current_sm();
      it->second.free_warp = obs::current_warp();
      it->second.free_tick = obs::current_tick();
      rec = it->second;
    }
  }
  if (double_free) {
    report(make_report(BugKind::kDoubleFree, user_ptr, rec));
    // If the handler returns, the first free stands; this one is dropped.
    return FreeResult::kOk;
  }
  live_blocks_.fetch_sub(1, std::memory_order_acq_rel);
  live_bytes_.fetch_sub(rec.user_size, std::memory_order_relaxed);

  verify_redzones(user_ptr, rec);  // a reported OOB still frees normally
  std::memset(user_ptr, kFreePoison, rec.user_size);

  st_.add(kPushes);
  {
    Guard g(q_mu_);
    quarantine_.push_back(user_ptr);
    q_bytes_plain_ += rec.capacity;
    q_blocks_.store(quarantine_.size(), std::memory_order_release);
    q_bytes_.store(q_bytes_plain_, std::memory_order_relaxed);
  }
  evict_down_to(cfg_.quarantine_blocks, cfg_.quarantine_bytes);
  return FreeResult::kOk;
}

bool HeapSan::lookup(const void* user_ptr, std::size_t* user_size) const {
  const Shard& sh = shards_[shard_of(user_ptr)];
  Guard g(sh.mu);
  const auto it = sh.blocks.find(user_ptr);
  if (it == sh.blocks.end() || it->second.quarantined) return false;
  if (user_size != nullptr) *user_size = it->second.user_size;
  return true;
}

bool HeapSan::relocate(void* old_base, void* new_base, void** old_user,
                       void** new_user) {
  // The user pointer sits one left-redzone into the slot; the shadow table
  // is keyed by it. The caller already copied the whole slot byte-for-byte
  // (redzones and poison travel with it), so only the record moves here.
  void* ou = static_cast<char*>(old_base) + cfg_.redzone_bytes;
  void* nu = static_cast<char*>(new_base) + cfg_.redzone_bytes;
  const std::size_t si = shard_of(ou);
  const std::size_t sj = shard_of(nu);
  // Two-shard lock, index-ordered (the same discipline everywhere a pair
  // of shards must be held).
  Shard& a = shards_[si < sj ? si : sj];
  Shard& b = shards_[si < sj ? sj : si];
  Guard ga(a.mu);
  if (si != sj) b.mu.lock();
  Shard& src = shards_[si];
  Shard& dst = shards_[sj];
  bool moved = false;
  const auto it = src.blocks.find(ou);
  if (it != src.blocks.end() && !it->second.quarantined) {
    Record rec = it->second;  // pedigree preserved verbatim
    rec.base = new_base;
    src.blocks.erase(it);
    dst.blocks.emplace(nu, rec);
    moved = true;
  }
  if (si != sj) b.mu.unlock();
  if (moved) {
    if (old_user != nullptr) *old_user = ou;
    if (new_user != nullptr) *new_user = nu;
  }
  return moved;
}

bool HeapSan::try_resize(void* user_ptr, std::size_t new_size,
                         std::size_t new_capacity) {
  Shard& sh = shards_[shard_of(user_ptr)];
  std::size_t old_size;
  Record rec;
  {
    Guard g(sh.mu);
    auto it = sh.blocks.find(user_ptr);
    if (it == sh.blocks.end() || it->second.quarantined) return false;
    if (it->second.capacity != new_capacity) return false;
    old_size = it->second.user_size;
    it->second.user_size = new_size;
    rec = it->second;
  }
  // Repaint outside the lock: resizing a block concurrently with using it
  // is a caller bug, as with any realloc.
  auto* user = static_cast<std::uint8_t*>(user_ptr);
  auto* slot_end = static_cast<std::uint8_t*>(rec.base) + rec.capacity;
  if (new_size > old_size && cfg_.poison_on_alloc) {
    std::memset(user + old_size, kAllocPoison, new_size - old_size);
  }
  std::memset(user + new_size, kRedzoneRight,
              static_cast<std::size_t>(slot_end - (user + new_size)));
  live_bytes_.fetch_sub(old_size, std::memory_order_relaxed);
  live_bytes_.fetch_add(new_size, std::memory_order_relaxed);
  return true;
}

std::size_t HeapSan::evict_down_to(std::size_t max_blocks,
                                   std::size_t max_bytes) {
  std::size_t evicted = 0;
  for (;;) {
    const void* victim = nullptr;
    {
      Guard g(q_mu_);
      if (quarantine_.empty() ||
          (quarantine_.size() <= max_blocks && q_bytes_plain_ <= max_bytes)) {
        break;
      }
      victim = quarantine_.front();
      quarantine_.pop_front();
    }
    Shard& sh = shards_[shard_of(victim)];
    Record rec;
    bool found = false;
    {
      Guard g(sh.mu);
      auto it = sh.blocks.find(victim);
      if (it != sh.blocks.end()) {
        rec = it->second;
        sh.blocks.erase(it);
        found = true;
      }
    }
    TOMA_ASSERT_MSG(found, "quarantined block missing from shadow table");
    {
      Guard g(q_mu_);
      q_bytes_plain_ -= rec.capacity;
      q_blocks_.store(quarantine_.size(), std::memory_order_release);
      q_bytes_.store(q_bytes_plain_, std::memory_order_relaxed);
    }
    verify_quarantined(victim, rec);
    st_.add(kEvictions);
    release_(rec.base);
    ++evicted;
  }
  return evicted;
}

std::size_t HeapSan::flush_quarantine() {
  const std::size_t evicted = evict_down_to(0, 0);
  if (evicted > 0) {
    st_.add(kFlushes);
  }
  return evicted;
}

std::size_t HeapSan::teardown_check() {
  flush_quarantine();
  std::vector<std::pair<const void*, Record>> leaked;
  for (Shard& sh : shards_) {
    Guard g(sh.mu);
    for (const auto& [p, rec] : sh.blocks) leaked.emplace_back(p, rec);
    sh.blocks.clear();
  }
  for (const auto& [p, rec] : leaked) {
    // A leaked block can still be corrupted; check before reporting it.
    verify_redzones(p, rec);
    report(make_report(BugKind::kLeak, p, rec));
  }
  live_blocks_.store(0, std::memory_order_release);
  live_bytes_.store(0, std::memory_order_relaxed);
  return leaked.size();
}

HeapSanStats HeapSan::stats() const {
  HeapSanStats s;
  s.enabled = enabled();
  s.live_blocks = live_blocks_.load(std::memory_order_relaxed);
  s.live_bytes = live_bytes_.load(std::memory_order_relaxed);
  s.quarantined_blocks = q_blocks_.load(std::memory_order_relaxed);
  s.quarantined_bytes = q_bytes_.load(std::memory_order_relaxed);
  s.quarantine_pushes = st_.sum(kPushes);
  s.quarantine_evictions = st_.sum(kEvictions);
  s.quarantine_flushes = st_.sum(kFlushes);
  s.redzone_checks = st_.sum(kRedzoneChecks);
  s.poison_checks = st_.sum(kPoisonChecks);
  return s;
}

}  // namespace toma::san
