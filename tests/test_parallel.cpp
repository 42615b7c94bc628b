// The parallel CAD subsystem: thread-pool semantics and the concurrent
// BatchFlowRunner against its sequential equivalent. Everything here must
// also run clean under ThreadSanitizer (the CI tsan leg executes this
// binary); tests deliberately push work through pools wider and narrower
// than the task count to exercise both queuing and stealing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "base/check.hpp"
#include "base/threadpool.hpp"
#include "cad/batch.hpp"
#include "cad/flow.hpp"
#include "support/flow_fixtures.hpp"

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

// ---------------------------------------------------------------------------
// BatchFlowRunner
// ---------------------------------------------------------------------------

TEST(BatchFlow, MatchesSequentialRunFlowBitForBit) {
    auto adder = asynclib::make_qdi_adder(2);
    auto fifo = asynclib::make_wchb_fifo(2, 2);
    const core::ArchSpec arch;

    std::vector<cad::BatchJob> jobs;
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        cad::BatchJob j;
        j.name = "adder_s" + std::to_string(seed);
        j.nl = &adder.nl;
        j.hints = &adder.hints;
        j.opts.seed = seed;
        jobs.push_back(j);
    }
    {
        cad::BatchJob j;
        j.name = "fifo";
        j.nl = &fifo.nl;
        j.hints = &fifo.hints;
        j.opts.seed = 9;
        jobs.push_back(j);
    }

    for (bool share_rr : {true, false}) {
        cad::BatchOptions bopts;
        bopts.threads = 4;
        bopts.share_rr = share_rr;
        cad::BatchFlowRunner runner(arch, bopts);
        const auto results = runner.run(jobs);
        ASSERT_EQ(results.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            ASSERT_TRUE(results[i].ok) << results[i].name << ": " << results[i].error;
            EXPECT_EQ(results[i].name, jobs[i].name);
            const auto solo =
                cad::run_flow(*jobs[i].nl, *jobs[i].hints, arch, jobs[i].opts);
            EXPECT_EQ(testsupport::flow_fingerprint(results[i].result),
                      testsupport::flow_fingerprint(solo))
                << results[i].name << " (share_rr=" << share_rr << ")";
        }
    }
}

TEST(BatchFlow, SharedRRGraphIsOneObject) {
    auto adder = asynclib::make_qdi_adder(2);
    std::vector<cad::BatchJob> jobs(3);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].name = "j" + std::to_string(i);
        jobs[i].nl = &adder.nl;
        jobs[i].hints = &adder.hints;
        jobs[i].opts.seed = i + 1;
    }
    cad::BatchFlowRunner runner(core::ArchSpec{}, {.threads = 2, .share_rr = true});
    const auto results = runner.run(jobs);
    ASSERT_TRUE(results[0].ok && results[1].ok && results[2].ok);
    EXPECT_EQ(results[0].result.rr.get(), results[1].result.rr.get());
    EXPECT_EQ(results[1].result.rr.get(), results[2].result.rr.get());
    const auto* rep = results[0].result.telemetry.stage("route");
    ASSERT_NE(rep, nullptr);
    EXPECT_NE(rep->metric("rr_shared"), nullptr);
}

TEST(BatchFlow, JobFailureIsIsolated) {
    auto small = asynclib::make_qdi_adder(2);
    auto big = asynclib::make_qdi_adder(16);  // cannot fit the default fabric
    std::vector<cad::BatchJob> jobs(3);
    jobs[0] = {"fits_a", &small.nl, &small.hints, {}};
    jobs[1] = {"too_big", &big.nl, &big.hints, {}};
    jobs[1].opts.route.max_iterations = 5;  // give up on the doomed job quickly
    jobs[2] = {"fits_b", &small.nl, &small.hints, {}};
    jobs[2].opts.seed = 5;

    cad::BatchFlowRunner runner(core::ArchSpec{}, {.threads = 3, .share_rr = true});
    const auto results = runner.run(jobs);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_FALSE(results[1].ok);
    EXPECT_FALSE(results[1].error.empty());
    EXPECT_TRUE(results[2].ok) << results[2].error;

    const std::string report = runner.report_json(results);
    EXPECT_NE(report.find("\"jobs_ok\":2"), std::string::npos) << report;
    EXPECT_NE(report.find("\"jobs_total\":3"), std::string::npos) << report;
}

}  // namespace
