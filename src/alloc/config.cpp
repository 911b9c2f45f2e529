#include "alloc/config.hpp"

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace toma::alloc {

namespace {

struct DefaultKey {
  std::string_view name;
  bool HeapDefaults::*field;
};

constexpr DefaultKey kDefaultKeys[] = {
    {"heapsan", &HeapDefaults::heapsan},
    {"magazines", &HeapDefaults::magazines},
    {"quicklist", &HeapDefaults::quicklist},
    {"stream_async", &HeapDefaults::stream_async},
};

}  // namespace

std::optional<HeapDefaults> parse_heap_defaults(const char* spec,
                                                std::string* error) {
  HeapDefaults d;
  std::string_view rest = spec != nullptr ? spec : "";
  if (rest.empty()) return d;
  for (;;) {
    const std::size_t comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    const std::size_t eq = item.find('=');
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view{} : item.substr(eq + 1);
    const DefaultKey* key = nullptr;
    for (const DefaultKey& k : kDefaultKeys) {
      if (k.name == item.substr(0, eq)) key = &k;
    }
    if (key == nullptr || (value != "0" && value != "1")) {
      if (error != nullptr) {
        *error = "bad item \"" + std::string(item) +
                 "\": want key=0|1, key one of heapsan, magazines, "
                 "quicklist, stream_async";
      }
      return std::nullopt;
    }
    d.*key->field = value == "1";
    if (comma == std::string_view::npos) return d;
    rest.remove_prefix(comma + 1);
  }
}

const HeapDefaults& heap_defaults() {
  static const HeapDefaults defaults = [] {
    const char* spec = std::getenv("TOMA_HEAP_DEFAULTS");
    std::string error;
    const std::optional<HeapDefaults> d = parse_heap_defaults(spec, &error);
    if (!d) {
      std::fprintf(stderr, "[toma] TOMA_HEAP_DEFAULTS=%s: %s\n", spec,
                   error.c_str());
      std::abort();
    }
    return *d;
  }();
  return defaults;
}

}  // namespace toma::alloc
