// The front-end defaults and their one override, TOMA_HEAP_DEFAULTS: the
// parser (pure; the process environment is never touched), and the rule
// that an explicit HeapConfig field or C config toggle beats whatever
// default the process runs with. CI runs the whole suite under several
// override values, so the precedence tests flip each switch away from
// the *current* default rather than from the built-in one.
#include "alloc/config.hpp"

#include <gtest/gtest.h>

#include <string>

#include "alloc/pool.hpp"
#include "toma/toma.h"

namespace toma::alloc {
namespace {

struct Key {
  const char* name;
  bool HeapDefaults::*field;
};

constexpr Key kKeys[] = {
    {"heapsan", &HeapDefaults::heapsan},
    {"magazines", &HeapDefaults::magazines},
    {"quicklist", &HeapDefaults::quicklist},
    {"stream_async", &HeapDefaults::stream_async},
};

TEST(HeapDefaults, UnsetOrEmptyGivesTheBuiltInDefaults) {
  const HeapDefaults builtin{.heapsan = false,
                             .magazines = true,
                             .quicklist = true,
                             .stream_async = true};
  EXPECT_EQ(HeapDefaults{}, builtin);
  EXPECT_EQ(parse_heap_defaults(nullptr), builtin);
  EXPECT_EQ(parse_heap_defaults(""), builtin);
}

TEST(HeapDefaults, EachKeyFlipsOnlyItsOwnDefault) {
  for (const Key& k : kKeys) {
    HeapDefaults want;
    want.*k.field = !(want.*k.field);
    const std::string spec =
        std::string(k.name) + "=" + (want.*k.field ? "1" : "0");
    EXPECT_EQ(parse_heap_defaults(spec.c_str()), want) << spec;
    // Restating the built-in value changes nothing.
    const std::string same =
        std::string(k.name) + "=" + (want.*k.field ? "0" : "1");
    EXPECT_EQ(parse_heap_defaults(same.c_str()), HeapDefaults{}) << same;
  }
  HeapDefaults both;
  both.magazines = false;
  both.heapsan = true;
  EXPECT_EQ(parse_heap_defaults("magazines=0,heapsan=1"), both);
}

TEST(HeapDefaults, MalformedItemsAreRejected) {
  for (const char* bad :
       {"magazine=0", "MAGAZINES=0", "magazines=2", "magazines=on",
        "magazines= 1", "magazines", "magazines=", "=1", ",", "quicklist=0,",
        ",quicklist=0", "quicklist=0,,heapsan=1", "quicklist=0;heapsan=1",
        "quicklist=0,bogus=1", "vmm=0"}) {
    std::string error;
    EXPECT_FALSE(parse_heap_defaults(bad, &error).has_value()) << bad;
    EXPECT_NE(error.find("bad item"), std::string::npos) << bad;
  }
}

TEST(HeapDefaults, HeapConfigStartsFromTheProcessDefaults) {
  const HeapDefaults& d = heap_defaults();
  const HeapConfig cfg;
  EXPECT_EQ(cfg.heapsan, d.heapsan);
  EXPECT_EQ(cfg.magazines, d.magazines);
  EXPECT_EQ(cfg.quicklist, d.quicklist);
}

TEST(HeapDefaults, ExplicitHeapConfigFieldsWin) {
  const HeapDefaults& d = heap_defaults();
  HeapConfig cfg{.pool_bytes = 4 << 20, .num_arenas = 1};
  cfg.heapsan = !d.heapsan;
  cfg.magazines = !d.magazines;
  cfg.quicklist = !d.quicklist;
  Pool pool("heap-defaults-explicit", cfg);
  GpuAllocator& ga = pool.allocator();
  EXPECT_EQ(ga.heapsan_enabled(), !d.heapsan);
  EXPECT_EQ(ga.ualloc().magazines_enabled(), !d.magazines);
  EXPECT_EQ(ga.buddy().quicklist_enabled(), !d.quicklist);
  EXPECT_EQ(pool.async_enabled(), d.stream_async);  // not a HeapConfig field
}

Pool& create_c_pool(const char* name, const toma_pool_config_t& cfg) {
  EXPECT_EQ(toma_pool_create(name, &cfg, nullptr), TOMA_OK);
  Pool* pool = PoolManager::instance().find(name);
  EXPECT_NE(pool, nullptr);
  return *pool;
}

TEST(HeapDefaults, CConfigTogglesWinAndMinusOneFollows) {
  const HeapDefaults& d = heap_defaults();
  toma_pool_config_t cfg = toma_pool_config_default();
  cfg.pool_bytes = 4 << 20;
  cfg.num_arenas = 1;
  Pool& dflt = create_c_pool("heap-defaults-c-default", cfg);
  EXPECT_EQ(dflt.allocator().heapsan_enabled(), d.heapsan);
  EXPECT_EQ(dflt.allocator().ualloc().magazines_enabled(), d.magazines);
  EXPECT_EQ(dflt.allocator().buddy().quicklist_enabled(), d.quicklist);
  EXPECT_EQ(dflt.async_enabled(), d.stream_async);

  cfg.heapsan = d.heapsan ? 0 : 1;
  cfg.magazines = d.magazines ? 0 : 1;
  cfg.quicklist = d.quicklist ? 0 : 1;
  cfg.stream_async = d.stream_async ? 0 : 1;
  Pool& forced = create_c_pool("heap-defaults-c-forced", cfg);
  EXPECT_EQ(forced.allocator().heapsan_enabled(), !d.heapsan);
  EXPECT_EQ(forced.allocator().ualloc().magazines_enabled(), !d.magazines);
  EXPECT_EQ(forced.allocator().buddy().quicklist_enabled(), !d.quicklist);
  EXPECT_EQ(forced.async_enabled(), !d.stream_async);

  EXPECT_TRUE(PoolManager::instance().destroy("heap-defaults-c-default"));
  EXPECT_TRUE(PoolManager::instance().destroy("heap-defaults-c-forced"));
}

TEST(HeapDefaults, CConfigDefaultLeavesEveryToggleToTheLibrary) {
  const toma_pool_config_t cfg = toma_pool_config_default();
  EXPECT_EQ(cfg.heapsan, -1);
  EXPECT_EQ(cfg.magazines, -1);
  EXPECT_EQ(cfg.quicklist, -1);
  EXPECT_EQ(cfg.stream_async, -1);
  EXPECT_EQ(cfg.vmm, -1);
}

}  // namespace
}  // namespace toma::alloc
