// The parallel CAD subsystem: thread-pool semantics, determinism of
// multi-seed placement racing under different pool sizes, and the concurrent
// BatchFlowRunner against its sequential equivalent. Everything here must
// also run clean under ThreadSanitizer (the CI tsan leg executes this
// binary); tests deliberately push work through pools wider and narrower
// than the task count to exercise both queuing and stealing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "base/check.hpp"
#include "base/rng.hpp"
#include "base/threadpool.hpp"
#include "cad/batch.hpp"
#include "cad/flow.hpp"
#include "cad/pack.hpp"
#include "cad/place.hpp"
#include "cad/techmap.hpp"
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
// Multi-seed placement racing
// ---------------------------------------------------------------------------

struct PlacedDesign {
    cad::MappedDesign md;
    cad::PackedDesign pd;
    core::ArchSpec arch;
};

PlacedDesign prepare_adder(std::size_t bits) {
    auto adder = asynclib::make_qdi_adder(bits);
    PlacedDesign out;
    out.md = cad::techmap(adder.nl, adder.hints, {});
    out.pd = cad::pack(out.md, out.arch, {});
    return out;
}

void expect_same_placement(const cad::Placement& a, const cad::Placement& b) {
    ASSERT_EQ(a.cluster_loc.size(), b.cluster_loc.size());
    for (std::size_t i = 0; i < a.cluster_loc.size(); ++i)
        EXPECT_TRUE(a.cluster_loc[i] == b.cluster_loc[i]) << "cluster " << i;
    EXPECT_EQ(a.pi_pad, b.pi_pad);
    EXPECT_EQ(a.po_pad, b.po_pad);
    EXPECT_EQ(a.final_cost, b.final_cost);
    EXPECT_EQ(a.winner_replica, b.winner_replica);
}

TEST(ParallelPlace, PoolSizeDoesNotChangeTheWinner) {
    const PlacedDesign d = prepare_adder(2);
    cad::PlaceOptions opts;
    opts.algorithm = cad::PlaceAlgorithm::Anneal;
    opts.seed = 11;
    opts.parallel_seeds = 4;
    opts.threads = 1;
    const cad::Placement serial = cad::place(d.pd, d.md, d.arch, opts);
    ASSERT_EQ(serial.replicas.size(), 4u);
    for (unsigned t : {2u, 4u}) {
        opts.threads = t;
        const cad::Placement racy = cad::place(d.pd, d.md, d.arch, opts);
        expect_same_placement(serial, racy);
        ASSERT_EQ(racy.replicas.size(), 4u);
        for (std::size_t i = 0; i < 4; ++i) {
            EXPECT_EQ(serial.replicas[i].seed, racy.replicas[i].seed) << "replica " << i;
            EXPECT_EQ(serial.replicas[i].final_cost, racy.replicas[i].final_cost)
                << "replica " << i;
            EXPECT_EQ(serial.replicas[i].cost_trajectory, racy.replicas[i].cost_trajectory)
                << "replica " << i;
        }
    }
}

TEST(ParallelPlace, ReplicaResultsArePureFunctionsOfTheirSeed) {
    // Growing the race keeps the existing replicas' per-seed QoR bit-identical
    // (N=2 is a prefix of N=4), and every replica equals a single-seed run
    // with the same derived seed.
    const PlacedDesign d = prepare_adder(2);
    cad::PlaceOptions opts;
    opts.algorithm = cad::PlaceAlgorithm::Anneal;
    opts.seed = 23;
    opts.parallel_seeds = 2;
    const cad::Placement two = cad::place(d.pd, d.md, d.arch, opts);
    opts.parallel_seeds = 4;
    const cad::Placement four = cad::place(d.pd, d.md, d.arch, opts);
    ASSERT_EQ(two.replicas.size(), 2u);
    ASSERT_EQ(four.replicas.size(), 4u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(two.replicas[i].seed, four.replicas[i].seed);
        EXPECT_EQ(two.replicas[i].final_cost, four.replicas[i].final_cost);
    }
    // Cross-check replica 1 against a plain single-seed anneal.
    cad::PlaceOptions single;
    single.algorithm = cad::PlaceAlgorithm::Anneal;
    single.seed = base::Rng::derive_seed(23, 1);
    const cad::Placement alone = cad::place(d.pd, d.md, d.arch, single);
    EXPECT_EQ(alone.final_cost, four.replicas[1].final_cost);
}

TEST(ParallelPlace, WinnerIsMinCostThenLowestReplica) {
    const PlacedDesign d = prepare_adder(2);
    cad::PlaceOptions opts;
    opts.algorithm = cad::PlaceAlgorithm::Anneal;
    opts.seed = 31;
    opts.parallel_seeds = 4;
    const cad::Placement pl = cad::place(d.pd, d.md, d.arch, opts);
    ASSERT_EQ(pl.replicas.size(), 4u);
    for (std::size_t i = 0; i < pl.replicas.size(); ++i) {
        if (i < pl.winner_replica)
            EXPECT_GT(pl.replicas[i].final_cost, pl.final_cost) << "replica " << i;
        else
            EXPECT_GE(pl.replicas[i].final_cost, pl.final_cost) << "replica " << i;
    }
    EXPECT_EQ(pl.final_cost, pl.replicas[pl.winner_replica].final_cost);
}

// ---------------------------------------------------------------------------
// Whole-flow determinism under parallelism
// ---------------------------------------------------------------------------

TEST(ParallelFlow, FingerprintInvariantUnderPoolSize) {
    auto adder = asynclib::make_qdi_adder(2);
    cad::FlowOptions opts;
    opts.seed = 77;
    opts.place.algorithm = cad::PlaceAlgorithm::Anneal;
    opts.place.parallel_seeds = 4;
    std::set<std::string> fingerprints;
    for (unsigned t : {1u, 2u, 4u}) {
        opts.place.threads = t;
        const auto fr = cad::run_flow(adder.nl, adder.hints, core::ArchSpec{}, opts);
        fingerprints.insert(testsupport::flow_fingerprint(fr));
    }
    EXPECT_EQ(fingerprints.size(), 1u)
        << "placement race winner depended on the pool size";
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

TEST(BatchFlow, ParallelSeedsInsideBatchJobsStaysDeterministic) {
    // The two tiers compose: batch jobs that each race placement replicas
    // still reproduce the sequential result.
    auto adder = asynclib::make_qdi_adder(2);
    cad::BatchJob j;
    j.name = "racing";
    j.nl = &adder.nl;
    j.hints = &adder.hints;
    j.opts.seed = 13;
    j.opts.place.algorithm = cad::PlaceAlgorithm::Anneal;
    j.opts.place.parallel_seeds = 3;
    j.opts.place.threads = 2;

    const core::ArchSpec arch;
    cad::BatchFlowRunner runner(arch, {.threads = 2, .share_rr = true});
    const auto results = runner.run({j, j});
    ASSERT_TRUE(results[0].ok && results[1].ok);
    const auto solo = cad::run_flow(*j.nl, *j.hints, arch, j.opts);
    EXPECT_EQ(testsupport::flow_fingerprint(results[0].result),
              testsupport::flow_fingerprint(solo));
    EXPECT_EQ(testsupport::flow_fingerprint(results[1].result),
              testsupport::flow_fingerprint(solo));
}

}  // namespace
