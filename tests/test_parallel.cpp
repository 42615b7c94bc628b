// The thread pool under every parallel CAD path: task results, index
// coverage, exception propagation and the worker-count override. Everything
// here must also run clean under ThreadSanitizer (the CI tsan leg executes
// this binary); tests deliberately push work through pools wider and
// narrower than the task count to exercise both queuing and stealing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <vector>

#include "base/check.hpp"
#include "base/threadpool.hpp"

namespace {

using namespace afpga;

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, SubmitReturnsResults) {
    base::ThreadPool pool(4);
    EXPECT_EQ(pool.num_workers(), 4u);
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 64; ++i) futs.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 64; ++i) EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
    base::ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(257);
    pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, TaskExceptionPropagates) {
    base::ThreadPool pool(2);
    auto f = pool.submit([]() -> int { throw base::Error("boom"); });
    EXPECT_THROW((void)f.get(), base::Error);
    // The pool survives a throwing task.
    EXPECT_EQ(pool.submit([] { return 5; }).get(), 5);
    EXPECT_THROW(pool.parallel_for(8,
                                   [](std::size_t i) {
                                       if (i == 3) throw base::Error("pf");
                                   }),
                 base::Error);
}

TEST(ThreadPool, MoreTasksThanWorkersDrains) {
    base::ThreadPool pool(2);
    std::atomic<int> sum{0};
    pool.parallel_for(1000, [&](std::size_t i) { sum += static_cast<int>(i % 7); });
    int expect = 0;
    for (int i = 0; i < 1000; ++i) expect += i % 7;
    EXPECT_EQ(sum.load(), expect);
}

TEST(ThreadPool, DefaultWorkersHonoursEnv) {
    // CMake exports AFPGA_TEST_THREADS as AFPGA_THREADS for every test, so
    // unit legs exercise a multi-worker pool even on one-core runners. Only
    // a fully-numeric positive value overrides the hardware default.
    if (const char* env = std::getenv("AFPGA_THREADS")) {
        char* end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v > 0) {
            EXPECT_EQ(base::ThreadPool::default_workers(), static_cast<std::size_t>(v));
            return;
        }
    }
    EXPECT_GE(base::ThreadPool::default_workers(), 1u);
}

}  // namespace
