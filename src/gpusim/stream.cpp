#include "gpusim/stream.hpp"

#include <atomic>

namespace toma::gpu {

namespace {
std::atomic<std::uint32_t> g_next_stream_id{0};
}  // namespace

Stream::Stream()
    : id_(g_next_stream_id.fetch_add(1, std::memory_order_relaxed)) {}

Stream& default_stream() {
  // Leaky singleton: deferred allocator batches keyed by the default
  // stream must stay resolvable during static teardown.
  static Stream* s = new Stream();
  return *s;
}

}  // namespace toma::gpu
