// Streams: ordering domains for asynchronous work, CUDA-style.
//
// Operations submitted to one stream are ordered by submission; distinct
// streams are unordered until a synchronization point. The simulator's
// kernel launches are synchronous, so a Stream carries no execution state
// of its own: it is an *identity*, a process-unique id the asynchronous
// allocator front-end keys its per-stream deferred batches by.
#pragma once

#include <cstdint>

namespace toma::gpu {

class Stream {
 public:
  /// A fresh stream with a process-unique id.
  Stream();

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_;
};

/// The process-wide default stream (CUDA's stream 0 analogue): what the
/// C facade uses when the caller passes a null stream handle.
Stream& default_stream();

}  // namespace toma::gpu
