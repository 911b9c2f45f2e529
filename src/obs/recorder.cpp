#include "obs/recorder.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "obs/stats.hpp"
#include "util/assert.hpp"
#include "util/hints.hpp"

namespace toma::obs {

namespace {

// Raw test-and-set lock (same rationale as the trace ring locks: a push
// never suspends while holding it, so contention only comes from other OS
// threads holding it for a handful of stores). obs sits below sync/, so
// it cannot use sync::SpinMutex.
struct TOMA_CACHELINE_ALIGNED RecLock {
  std::atomic_flag f = ATOMIC_FLAG_INIT;
  void lock() {
    while (f.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() { f.clear(std::memory_order_release); }
};

}  // namespace

struct Recorder::Impl {
  mutable RecLock mu;

  bool started = false;  // a session exists (may be stopped)
  std::atomic<std::uint64_t> generation{0};  // lock-free read (hot path)
  std::size_t capacity = 0;
  std::uint64_t dropped = 0;
  std::uint64_t next_seq = 0;
  std::uint32_t next_block = 1;
  std::uint32_t next_stream = 1;  // 0 is reserved for the default stream

  std::vector<RecordEvent> events;
  std::vector<RecordedPool> pools;
  std::unordered_map<std::string, std::uint16_t> pool_ids;
  std::unordered_map<std::uint32_t, std::uint32_t> stream_ids;
  std::unordered_map<const void*, std::uint32_t> blocks;

  // Monotonic process-wide loss count: unlike `dropped` it survives
  // re-starts, and its collector shows recorder loss in every metrics
  // export (obs.record.dropped).
  std::atomic<std::uint64_t> dropped_total{0};
  static constexpr const char* kStatNames[1] = {"obs.record.dropped"};
  StatsSource stats_source{[this](CounterTotals& out) {
    const std::uint64_t v[] = {dropped_total.load(std::memory_order_relaxed)};
    collect(v, out, kStatNames);
  }};

  // Append under mu; counts a drop when the buffer is at capacity.
  void push(const RecordEvent& e) {
    if (events.size() >= capacity) {
      ++dropped;
      dropped_total.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    events.push_back(e);
  }

  std::uint32_t stream_id(std::uint32_t gpu_id, bool is_default) {
    if (is_default) return 0;
    auto [it, inserted] = stream_ids.try_emplace(gpu_id, next_stream);
    if (inserted) ++next_stream;
    return it->second;
  }
};

Recorder::Recorder() : impl_(new Impl()) {}

Recorder& Recorder::instance() {
  static Recorder* r = new Recorder();  // leaky: outlives static dtors
  return *r;
}

bool Recorder::start(std::size_t capacity_events) {
  if (recording_enabled()) return false;
  Impl& im = *impl_;
  im.mu.lock();
  im.started = true;
  im.generation.fetch_add(1, std::memory_order_relaxed);
  im.capacity = capacity_events < 1024 ? 1024 : capacity_events;
  im.dropped = 0;
  im.next_seq = 0;
  im.next_block = 1;
  im.next_stream = 1;
  im.events.clear();
  im.events.reserve(im.capacity);
  im.pools.clear();
  im.pool_ids.clear();
  im.stream_ids.clear();
  im.blocks.clear();
  im.mu.unlock();
  detail::g_record_on.store(true, std::memory_order_seq_cst);
  return true;
}

void Recorder::stop() {
  detail::g_record_on.store(false, std::memory_order_seq_cst);
}

std::uint64_t Recorder::generation() const {
  return impl_->generation.load(std::memory_order_relaxed);
}

std::size_t Recorder::event_count() const {
  Impl& im = *impl_;
  im.mu.lock();
  const std::size_t n = im.events.size();
  im.mu.unlock();
  return n;
}

std::uint64_t Recorder::dropped() const {
  Impl& im = *impl_;
  im.mu.lock();
  const std::uint64_t d = im.dropped;
  im.mu.unlock();
  return d;
}

std::uint16_t Recorder::intern_pool(const RecordedPool& info) {
  Impl& im = *impl_;
  im.mu.lock();
  auto it = im.pool_ids.find(info.name);
  if (it == im.pool_ids.end()) {
    const auto id = static_cast<std::uint16_t>(im.pools.size());
    im.pools.push_back(info);
    it = im.pool_ids.emplace(info.name, id).first;
  }
  const std::uint16_t id = it->second;
  im.mu.unlock();
  return id;
}

std::uint32_t Recorder::on_alloc(std::uint16_t pool, RecOp op,
                                 std::size_t size,
                                 std::uint32_t gpu_stream_id,
                                 bool is_default_stream, const void* result,
                                 std::uint8_t outcome) {
  if (!recording_enabled()) return 0;
  Impl& im = *impl_;
  im.mu.lock();
  std::uint32_t block = 0;
  if (result != nullptr) {
    block = im.next_block++;
    im.blocks[result] = block;
  }
  RecordEvent e{};
  e.seq = im.next_seq++;
  e.size = size;
  e.block = block;
  e.stream = im.stream_id(gpu_stream_id, is_default_stream);
  e.pool = pool;
  e.op = op;
  e.outcome = outcome;
  im.push(e);
  im.mu.unlock();
  return block;
}

void Recorder::on_free(std::uint16_t pool, RecOp op, const void* p,
                       std::uint32_t gpu_stream_id, bool is_default_stream) {
  if (!recording_enabled()) return;
  Impl& im = *impl_;
  im.mu.lock();
  // A block allocated before recording started frees with id 0; replay
  // skips it (it has no pointer to free).
  std::uint32_t block = 0;
  if (auto it = im.blocks.find(p); it != im.blocks.end()) {
    block = it->second;
    im.blocks.erase(it);
  }
  RecordEvent e{};
  e.seq = im.next_seq++;
  e.block = block;
  e.stream = im.stream_id(gpu_stream_id, is_default_stream);
  e.pool = pool;
  e.op = op;
  e.outcome = kRecOk;
  im.push(e);
  im.mu.unlock();
}

void Recorder::on_realloc(std::uint16_t pool, const void* old_p,
                          const void* new_p, std::size_t size,
                          std::uint8_t outcome) {
  if (!recording_enabled()) return;
  Impl& im = *impl_;
  im.mu.lock();
  std::uint32_t old_block = 0;
  if (old_p != nullptr) {
    if (auto it = im.blocks.find(old_p); it != im.blocks.end()) {
      old_block = it->second;
      // realloc(p, 0) freed p; a successful resize moves or keeps the
      // identity, and a failed one leaves the old block live.
      if (new_p != nullptr || size == 0) im.blocks.erase(it);
    }
  }
  std::uint32_t new_block = 0;
  if (new_p != nullptr) {
    new_block = im.next_block++;
    im.blocks[new_p] = new_block;
  }
  RecordEvent e{};
  e.seq = im.next_seq++;
  e.size = size;
  e.block = old_block;
  e.aux = new_block;
  e.pool = pool;
  e.op = RecOp::kRealloc;
  e.outcome = outcome;
  im.push(e);
  im.mu.unlock();
}

void Recorder::on_move(const void* from, const void* to) {
  if (!recording_enabled()) return;
  Impl& im = *impl_;
  im.mu.lock();
  if (auto it = im.blocks.find(from); it != im.blocks.end()) {
    const std::uint32_t id = it->second;
    im.blocks.erase(it);
    im.blocks[to] = id;
  }
  im.mu.unlock();
}

void Recorder::on_sync(std::uint16_t pool, RecOp op,
                       std::uint32_t gpu_stream_id, bool is_default_stream,
                       std::uint64_t amount) {
  if (!recording_enabled()) return;
  Impl& im = *impl_;
  im.mu.lock();
  RecordEvent e{};
  e.seq = im.next_seq++;
  e.size = amount;
  e.stream = im.stream_id(gpu_stream_id, is_default_stream);
  e.pool = pool;
  e.op = op;
  e.outcome = kRecOk;
  im.push(e);
  im.mu.unlock();
}

RecordedTrace Recorder::trace() const {
  Impl& im = *impl_;
  RecordedTrace t;
  im.mu.lock();
  t.pools = im.pools;
  t.dropped = im.dropped;
  t.events = im.events;
  im.mu.unlock();
  return t;
}

bool Recorder::dump(const std::string& path) const {
  return trace().write(path);
}

// ---------------------------------------------------------------------------
// .tomarec serialization
// ---------------------------------------------------------------------------

namespace {

bool put(std::FILE* f, const void* p, std::size_t n) {
  return std::fwrite(p, 1, n, f) == n;
}
bool get(std::FILE* f, void* p, std::size_t n) {
  return std::fread(p, 1, n, f) == n;
}
template <typename T>
bool put_int(std::FILE* f, T v) {
  return put(f, &v, sizeof(v));
}
template <typename T>
bool get_int(std::FILE* f, T* v) {
  return get(f, v, sizeof(*v));
}

}  // namespace

bool RecordedTrace::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = put(f, kTomarecMagic, sizeof(kTomarecMagic)) &&
            put_int(f, version) &&
            put_int(f, static_cast<std::uint32_t>(pools.size()));
  for (const RecordedPool& p : pools) {
    if (!ok) break;
    ok = put_int(f, static_cast<std::uint16_t>(p.name.size())) &&
         put(f, p.name.data(), p.name.size()) && put_int(f, p.pool_bytes) &&
         put_int(f, p.quota_bytes) && put_int(f, p.release_threshold) &&
         put_int(f, p.num_arenas) && put_int(f, p.flags);
  }
  ok = ok && put_int(f, dropped) &&
       put_int(f, static_cast<std::uint64_t>(events.size()));
  if (ok && !events.empty()) {
    ok = put(f, events.data(), events.size() * sizeof(RecordEvent));
  }
  return std::fclose(f) == 0 && ok;
}

bool RecordedTrace::read(const std::string& path, RecordedTrace* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  RecordedTrace t;
  char magic[sizeof(kTomarecMagic)];
  std::uint32_t pool_count = 0;
  std::uint64_t event_count = 0;
  bool ok = get(f, magic, sizeof(magic)) &&
            std::memcmp(magic, kTomarecMagic, sizeof(magic)) == 0 &&
            get_int(f, &t.version) && t.version <= kTomarecVersion &&
            t.version >= 1 && get_int(f, &pool_count) &&
            pool_count <= UINT16_MAX + 1;
  for (std::uint32_t i = 0; ok && i < pool_count; ++i) {
    RecordedPool p;
    std::uint16_t len = 0;
    ok = get_int(f, &len);
    if (ok) {
      p.name.resize(len);
      ok = get(f, p.name.data(), len) && get_int(f, &p.pool_bytes) &&
           get_int(f, &p.quota_bytes) && get_int(f, &p.release_threshold) &&
           get_int(f, &p.num_arenas) && get_int(f, &p.flags);
    }
    if (ok) t.pools.push_back(std::move(p));
  }
  ok = ok && get_int(f, &t.dropped) && get_int(f, &event_count);
  if (ok && event_count != 0) {
    // Bound the resize by the actual file size so a corrupt count cannot
    // drive a huge allocation.
    const long body_at = std::ftell(f);
    ok = body_at >= 0 && std::fseek(f, 0, SEEK_END) == 0;
    const long end_at = ok ? std::ftell(f) : -1;
    ok = ok && end_at >= body_at &&
         static_cast<std::uint64_t>(end_at - body_at) ==
             event_count * sizeof(RecordEvent) &&
         std::fseek(f, body_at, SEEK_SET) == 0;
    if (ok) {
      t.events.resize(static_cast<std::size_t>(event_count));
      ok = get(f, t.events.data(), t.events.size() * sizeof(RecordEvent));
    }
  }
  std::fclose(f);
  if (ok && out != nullptr) *out = std::move(t);
  return ok;
}

// ---------------------------------------------------------------------------
// TOMA_RECORD environment boot
// ---------------------------------------------------------------------------

namespace {

// TOMA_RECORD=1 (or any non-numeric truthy value) starts a recording with
// the default capacity at process start; TOMA_RECORD=<N> for N >= 1024
// sets the event capacity. TOMA_RECORD=0 / unset leaves recording off.
// Dumping is always explicit (toma_record_dump / bench --record=PATH).
const bool g_env_boot = [] {
  const char* v = std::getenv("TOMA_RECORD");
  if (v == nullptr || v[0] == '\0' || std::strcmp(v, "0") == 0) return false;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v, &end, 10);
  const std::size_t cap = (end != v && *end == '\0' && n > 1)
                              ? static_cast<std::size_t>(n)
                              : Recorder::kDefaultCapacity;
  return Recorder::instance().start(cap);
}();

}  // namespace

}  // namespace toma::obs
