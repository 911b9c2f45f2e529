#include "sync/rcu.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "gpusim/gpusim.hpp"
#include "obs/context.hpp"
#include "support/test_support.hpp"

namespace toma::sync {
namespace {

struct CountingCb : RcuCallback {
  static std::atomic<int> fired;
  CountingCb() {
    fn = [](RcuCallback*) { fired.fetch_add(1); };
  }
};
std::atomic<int> CountingCb::fired{0};

TEST(Srcu, ReadLockUnlockBalances) {
  SrcuDomain d;
  const unsigned idx = d.read_lock();
  EXPECT_EQ(d.readers(idx), 1);
  d.read_unlock(idx);
  EXPECT_EQ(d.readers(idx), 0);
}

TEST(Srcu, SynchronizeWithNoReadersCompletes) {
  SrcuDomain d;
  const std::uint64_t e0 = d.epoch();
  d.synchronize();
  EXPECT_EQ(d.epoch(), e0 + 1);
  EXPECT_EQ(d.full_barriers(), 1u);
}

TEST(Srcu, CallbackRunsAfterGracePeriod) {
  SrcuDomain d;
  CountingCb::fired = 0;
  CountingCb cb;
  d.call(&cb);
  EXPECT_EQ(CountingCb::fired.load(), 0);  // call() does not run anything
  d.synchronize();
  EXPECT_EQ(CountingCb::fired.load(), 1);
}

TEST(Srcu, SynchronizeWaitsForReader) {
  SrcuDomain d;
  std::atomic<bool> reader_in{false}, reader_release{false};
  std::atomic<bool> synced{false};
  test::run_os_threads(2, [&](unsigned tid) {
    if (tid == 0) {
      const unsigned idx = d.read_lock();
      reader_in.store(true);
      while (!reader_release.load()) std::this_thread::yield();
      // The writer must still be inside synchronize() at this point.
      EXPECT_FALSE(synced.load());
      d.read_unlock(idx);
    } else {
      while (!reader_in.load()) std::this_thread::yield();
      reader_release.store(true);  // release first, THEN synchronize can end
      d.synchronize();
      synced.store(true);
    }
  });
  EXPECT_TRUE(synced.load());
}

TEST(Srcu, ReaderSpanningFlipIsWaitedFor) {
  // A reader that entered before the flip must block the grace period
  // even as new readers come and go in the new epoch.
  SrcuDomain d;
  const unsigned old_idx = d.read_lock();
  std::atomic<bool> done{false};
  std::thread writer([&] {
    d.synchronize();
    done.store(true);
  });
  // Give the writer time to flip and start waiting.
  for (int i = 0; i < 1000 && d.epoch() == 0; ++i) std::this_thread::yield();
  // New-epoch readers do not unblock it.
  const unsigned new_idx = d.read_lock();
  d.read_unlock(new_idx);
  EXPECT_FALSE(done.load());
  d.read_unlock(old_idx);
  writer.join();
  EXPECT_TRUE(done.load());
}

TEST(Srcu, ConditionalBarrierDelegatesToPendingBarrier) {
  // The paper's Figure 4(b) scenario, staged deterministically:
  //   barrier A holds the writer mutex, waiting out a reader;
  //   barrier B is queued behind A (pending, yet to flip the epoch);
  //   conditional barrier C sees B pending -> delegates and returns
  //   immediately, while A is still blocked.
  SrcuDomain d;
  CountingCb::fired = 0;
  CountingCb cb_a, cb_c;

  std::atomic<bool> reader_in{false};
  std::atomic<bool> c_returned{false};
  std::atomic<bool> a_done{false}, b_done{false};

  test::run_os_threads(3, [&](unsigned tid) {
    if (tid == 0) {
      // Orchestrator + reader.
      const unsigned idx = d.read_lock();
      reader_in.store(true);
      // (A) starts once we are inside the read-side critical section.
      // Wait for A to flip the epoch: it now holds the mutex, waiting us.
      while (d.epoch() == 0) std::this_thread::yield();
      // Wait for B to queue behind A.
      while (d.pending_barriers() == 0) std::this_thread::yield();
      // (C) can now delegate; wait for it to return.
      while (!c_returned.load()) std::this_thread::yield();
      EXPECT_EQ(d.delegated_barriers(), 1u);
      EXPECT_FALSE(a_done.load());
      EXPECT_EQ(CountingCb::fired.load(), 0);  // grace period still open
      d.read_unlock(idx);
    } else if (tid == 1) {
      // Barrier A. It must not flip before the reader is inside: a flip
      // that precedes read_lock leaves A nothing to wait for, so A would
      // complete at once and B would never be seen pending.
      while (!reader_in.load()) std::this_thread::yield();
      d.call(&cb_a);
      d.synchronize();
      a_done.store(true);
    } else {
      // Wait until A flipped (holds the mutex), then issue barrier B in a
      // helper thread and barrier C here.
      while (d.epoch() == 0) std::this_thread::yield();
      std::thread b([&] {
        d.synchronize();  // queues behind A: pending until A finishes
        b_done.store(true);
      });
      while (d.pending_barriers() == 0) std::this_thread::yield();
      d.barrier_conditional(&cb_c);  // must delegate to B
      c_returned.store(true);
      b.join();
    }
  });
  EXPECT_TRUE(a_done.load());
  EXPECT_TRUE(b_done.load());
  // cb_a ran under A's grace period; cb_c was delegated and ran under B's.
  EXPECT_EQ(CountingCb::fired.load(), 2);
  EXPECT_EQ(d.delegated_barriers(), 1u);
}

// --- polled grace period (start_poll / poll) ------------------------------

TEST(SrcuPoll, NoReaderCompletesOnFirstPoll) {
  SrcuDomain d;
  EXPECT_TRUE(d.poll(d.start_poll()));
  // Again after a synchronize, and on a cookie polled a second time.
  d.synchronize();
  const std::uint64_t c = d.start_poll();
  EXPECT_TRUE(d.poll(c));
  EXPECT_TRUE(d.poll(c));
}

TEST(SrcuPoll, ReaderBeforeStartPollHoldsPollFalse) {
  SrcuDomain d;
  const unsigned idx = d.read_lock();
  const std::uint64_t c = d.start_poll();
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(d.poll(c));
  // A reader that enters after start_poll is not waited for.
  const unsigned late = d.read_lock();
  d.read_unlock(idx);
  EXPECT_TRUE(d.poll(c));
  d.read_unlock(late);
}

TEST(SrcuPoll, TwoOutstandingCookiesEachWaitForTheirReaders) {
  // r1 is inside for both cookies, r2 only for c2 (it entered after the
  // flip c1's first poll made). Releasing r2 first must complete
  // neither: a poll that flipped again before r1's parity drained would
  // then see the other parity empty and wrongly complete both.
  SrcuDomain d;
  const unsigned r1 = d.read_lock();
  const std::uint64_t c1 = d.start_poll();
  EXPECT_FALSE(d.poll(c1));
  const unsigned r2 = d.read_lock();
  EXPECT_NE(r1, r2);
  const std::uint64_t c2 = d.start_poll();
  EXPECT_GT(c2, c1);
  EXPECT_FALSE(d.poll(c2));
  d.read_unlock(r2);
  EXPECT_FALSE(d.poll(c2));
  EXPECT_FALSE(d.poll(c1));
  EXPECT_FALSE(d.poll(c2));
  d.read_unlock(r1);
  EXPECT_TRUE(d.poll(c1));
  EXPECT_TRUE(d.poll(c2));

  // The other order: c1's reader leaves first and c1 completes while
  // c2's still holds it.
  const unsigned r3 = d.read_lock();
  const std::uint64_t c3 = d.start_poll();
  EXPECT_FALSE(d.poll(c3));
  const unsigned r4 = d.read_lock();
  const std::uint64_t c4 = d.start_poll();
  d.read_unlock(r3);
  EXPECT_TRUE(d.poll(c3));
  EXPECT_FALSE(d.poll(c4));
  d.read_unlock(r4);
  EXPECT_TRUE(d.poll(c4));
}

TEST(SrcuPoll, ReaderUnlockingOnAnotherShardDrains) {
  // A read section that migrates between lock and unlock: the drain must
  // count the reader on its locking shard and see it leave through the
  // unlocking one.
  SrcuDomain d;
  obs::set_thread_context(3, 0);
  const unsigned idx = d.read_lock();
  obs::set_thread_context(5, 0);
  std::uint64_t c = 0;
  std::thread([&] {  // poll from a third shard
    obs::set_thread_context(7, 0);
    c = d.start_poll();
    EXPECT_FALSE(d.poll(c));
    obs::clear_thread_context();
  }).join();
  d.read_unlock(idx);
  obs::clear_thread_context();
  EXPECT_EQ(d.readers(0), 0);
  EXPECT_EQ(d.readers(1), 0);
  EXPECT_TRUE(d.poll(c));
  d.synchronize();  // and a blocking grace period drains as well
}

TEST(SrcuPoll, InterleavesWithSynchronize) {
  // r1 holds the flip a poll left outstanding; r2 entered after it. A
  // synchronize must wait out both, and the poll must complete with it.
  SrcuDomain d;
  const unsigned r1 = d.read_lock();
  const std::uint64_t c = d.start_poll();
  EXPECT_FALSE(d.poll(c));
  const unsigned r2 = d.read_lock();
  std::atomic<bool> synced{false};
  std::thread writer([&] {
    d.synchronize();
    synced.store(true);
  });
  for (int i = 0; i < 1000; ++i) std::this_thread::yield();
  EXPECT_FALSE(synced.load());
  EXPECT_FALSE(d.poll(c));
  d.read_unlock(r1);
  for (int i = 0; i < 1000; ++i) std::this_thread::yield();
  EXPECT_FALSE(synced.load());  // r2 is still inside
  d.read_unlock(r2);
  writer.join();
  EXPECT_TRUE(d.poll(c));
  // A cookie taken while a new reader is inside, polled across a
  // conditional barrier, still waits for that reader, and so does the
  // barrier's callback.
  CountingCb::fired = 0;
  CountingCb cb;
  const unsigned r3 = d.read_lock();
  const std::uint64_t c3 = d.start_poll();
  EXPECT_FALSE(d.poll(c3));
  std::thread writer2([&] { d.barrier_conditional(&cb); });
  for (int i = 0; i < 1000; ++i) std::this_thread::yield();
  EXPECT_FALSE(d.poll(c3));
  EXPECT_EQ(CountingCb::fired.load(), 0);
  d.read_unlock(r3);
  writer2.join();
  EXPECT_EQ(CountingCb::fired.load(), 1);
  EXPECT_TRUE(d.poll(c3));
}

TEST(Srcu, ManyWritersManyReadersGpu) {
  gpu::Device dev(test::small_device());
  SrcuDomain d;
  std::atomic<int> cb_runs{0};
  struct Cb : RcuCallback {
    std::atomic<int>* counter;
  };
  std::vector<Cb> cbs(64);
  for (auto& cb : cbs) {
    cb.counter = &cb_runs;
    cb.fn = [](RcuCallback* c) {
      static_cast<Cb*>(c)->counter->fetch_add(1);
    };
  }
  std::atomic<std::uint32_t> next_cb{0};

  dev.launch(gpu::Dim3{4}, gpu::Dim3{64}, [&](gpu::ThreadCtx& t) {
    if (t.thread_rank() % 4 == 0) {
      // Writer: enqueue a callback through a conditional barrier.
      const std::uint32_t i = next_cb.fetch_add(1);
      if (i < cbs.size()) {
        d.barrier_conditional(&cbs[i]);
      } else {
        d.barrier_conditional(nullptr);
      }
    } else {
      // Reader: enter/exit read-side critical sections.
      for (int r = 0; r < 4; ++r) {
        RcuReadGuard g(d);
        t.yield();
      }
    }
  });
  // Every enqueued callback ran exactly once once a final full barrier
  // flushes stragglers.
  d.synchronize();
  EXPECT_EQ(cb_runs.load(), 64);
  EXPECT_EQ(d.readers(0), 0);
  EXPECT_EQ(d.readers(1), 0);
  EXPECT_GT(d.full_barriers(), 0u);
}

TEST(Srcu, DelegationHappensUnderContention) {
  gpu::Device dev(test::small_device());
  SrcuDomain d;
  dev.launch(gpu::Dim3{8}, gpu::Dim3{64}, [&](gpu::ThreadCtx& t) {
    if (t.thread_rank() % 8 == 0) {
      d.barrier_conditional(nullptr);
    } else {
      RcuReadGuard g(d);
      t.yield();
      t.yield();
    }
  });
  // With 64 concurrent barriers and many readers, a healthy fraction must
  // have been delegated rather than serialized.
  EXPECT_GT(d.delegated_barriers(), 0u);
}

}  // namespace
}  // namespace toma::sync
