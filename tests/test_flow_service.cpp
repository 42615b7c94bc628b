// The persistent FlowService and the content-addressed stage cache it
// shares across jobs: warm-vs-cold bit identity, the invalidation matrix
// ({seed, per-stage option, arch, netlist} each hitting exactly the stages
// they should), concurrent jobs over one store (the CI TSan leg executes
// this binary), submit/wait/cancel semantics, the mixed-grid smoke that
// pins service results byte-for-byte to the serial run_flow loop, and the
// scheduler's dispatch-order contract (priority, then per-lane round-robin)
// that the socket front-end builds its fairness guarantees on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "base/check.hpp"
#include "cad/artifact.hpp"
#include "cad/flow.hpp"
#include "cad/flow_service.hpp"
#include "cad/wire.hpp"
#include "support/flow_fixtures.hpp"

namespace {

using namespace afpga;

/// Expected cache outcome of the five stages, in pipeline order.
struct HitPattern {
    bool techmap, pack, place, route, bitstream;
};

void expect_hits(const cad::FlowTelemetry& t, const HitPattern& want,
                 const std::string& what) {
    const std::pair<const char*, bool> stages[] = {{"techmap", want.techmap},
                                                   {"pack", want.pack},
                                                   {"place", want.place},
                                                   {"route", want.route},
                                                   {"bitstream", want.bitstream}};
    for (const auto& [name, hit] : stages) {
        const cad::StageReport* s = t.stage(name);
        ASSERT_NE(s, nullptr) << what << ": missing stage " << name;
        EXPECT_EQ(s->cache_hit, hit ? 1 : 0) << what << ": stage " << name;
        EXPECT_FALSE(s->cache_key.empty()) << what << ": stage " << name;
    }
}

cad::FlowOptions with_store(const std::shared_ptr<cad::ArtifactStore>& store,
                            cad::FlowOptions opts = {}) {
    opts.artifact_store = store;
    return opts;
}

// ---------------------------------------------------------------------------
// Cache semantics through run_flow
// ---------------------------------------------------------------------------

TEST(ArtifactCache, WarmRerunIsBitIdenticalAndAllHits) {
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    auto store = std::make_shared<cad::ArtifactStore>();

    const auto cold = cad::run_flow(adder.nl, adder.hints, arch, with_store(store));
    expect_hits(cold.telemetry, {false, false, false, false, false}, "cold");

    const auto warm = cad::run_flow(adder.nl, adder.hints, arch, with_store(store));
    expect_hits(warm.telemetry, {true, true, true, true, true}, "warm");

    // Identical keys stage by stage, and an identical flow outcome.
    for (std::size_t i = 0; i < cold.telemetry.stages.size(); ++i)
        EXPECT_EQ(cold.telemetry.stages[i].cache_key, warm.telemetry.stages[i].cache_key);
    EXPECT_EQ(testsupport::flow_fingerprint(cold), testsupport::flow_fingerprint(warm));
}

TEST(ArtifactCache, CachingItselfNeverChangesTheResult) {
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    const auto plain = cad::run_flow(adder.nl, adder.hints, arch, {});
    EXPECT_EQ(plain.telemetry.stages.front().cache_hit, -1);  // caching off
    EXPECT_TRUE(plain.telemetry.stages.front().cache_key.empty());

    auto store = std::make_shared<cad::ArtifactStore>();
    const auto cold = cad::run_flow(adder.nl, adder.hints, arch, with_store(store));
    const auto warm = cad::run_flow(adder.nl, adder.hints, arch, with_store(store));
    EXPECT_EQ(testsupport::flow_fingerprint(plain), testsupport::flow_fingerprint(cold));
    EXPECT_EQ(testsupport::flow_fingerprint(plain), testsupport::flow_fingerprint(warm));
}

TEST(ArtifactCache, RouteKnobChangeReusesUpstreamOnly) {
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    auto store = std::make_shared<cad::ArtifactStore>();
    (void)cad::run_flow(adder.nl, adder.hints, arch, with_store(store));

    cad::FlowOptions tweaked;
    tweaked.route.astar_fac = 0.0;  // pure Dijkstra: a route-stage-only knob
    const auto warm = cad::run_flow(adder.nl, adder.hints, arch, with_store(store, tweaked));
    expect_hits(warm.telemetry, {true, true, true, false, false}, "route knob");

    // Bit-identical to compiling the tweaked options cold.
    const auto cold = cad::run_flow(adder.nl, adder.hints, arch, tweaked);
    EXPECT_EQ(testsupport::flow_fingerprint(cold), testsupport::flow_fingerprint(warm));
}

TEST(ArtifactCache, PdeMarginChangeReprogramsBitstreamOnly) {
    auto adder = asynclib::make_micropipeline_adder(2);
    const core::ArchSpec arch;
    auto store = std::make_shared<cad::ArtifactStore>();
    (void)cad::run_flow(adder.nl, {}, arch, with_store(store));

    cad::FlowOptions tweaked;
    tweaked.pde_extra_margin = 0.5;  // programmed by the bitstream stage alone
    const auto warm = cad::run_flow(adder.nl, {}, arch, with_store(store, tweaked));
    expect_hits(warm.telemetry, {true, true, true, true, false}, "pde margin");

    const auto cold = cad::run_flow(adder.nl, {}, arch, tweaked);
    EXPECT_EQ(testsupport::flow_fingerprint(cold), testsupport::flow_fingerprint(warm));
}

TEST(ArtifactCache, SeedChangeInvalidatesFromPlaceDown) {
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    auto store = std::make_shared<cad::ArtifactStore>();
    (void)cad::run_flow(adder.nl, adder.hints, arch, with_store(store));

    cad::FlowOptions reseeded;
    reseeded.seed = 2;
    const auto warm = cad::run_flow(adder.nl, adder.hints, arch, with_store(store, reseeded));
    expect_hits(warm.telemetry, {true, true, false, false, false}, "seed");

    const auto cold = cad::run_flow(adder.nl, adder.hints, arch, reseeded);
    EXPECT_EQ(testsupport::flow_fingerprint(cold), testsupport::flow_fingerprint(warm));
}

TEST(ArtifactCache, ArchChangeInvalidatesFromPackDown) {
    auto adder = asynclib::make_qdi_adder(2);
    core::ArchSpec arch;
    auto store = std::make_shared<cad::ArtifactStore>();
    (void)cad::run_flow(adder.nl, adder.hints, arch, with_store(store));

    arch.channel_width += 2;  // techmap never reads the architecture
    const auto warm = cad::run_flow(adder.nl, adder.hints, arch, with_store(store));
    expect_hits(warm.telemetry, {true, false, false, false, false}, "arch");
}

TEST(ArtifactCache, NetlistChangeInvalidatesEverything) {
    auto a2 = asynclib::make_qdi_adder(2);
    auto a3 = asynclib::make_qdi_adder(3);
    const core::ArchSpec arch;
    auto store = std::make_shared<cad::ArtifactStore>();
    (void)cad::run_flow(a2.nl, a2.hints, arch, with_store(store));

    const auto warm = cad::run_flow(a3.nl, a3.hints, arch, with_store(store));
    expect_hits(warm.telemetry, {false, false, false, false, false}, "netlist");
}

TEST(ArtifactCache, TelemetryJsonCarriesKeyAndHit) {
    auto adder = asynclib::make_qdi_adder(2);
    auto store = std::make_shared<cad::ArtifactStore>();
    const auto warm = [&] {
        (void)cad::run_flow(adder.nl, adder.hints, core::ArchSpec{}, with_store(store));
        return cad::run_flow(adder.nl, adder.hints, core::ArchSpec{}, with_store(store));
    }();
    const std::string json = warm.telemetry.to_json();
    EXPECT_NE(json.find("\"key\":\"0x"), std::string::npos);
    EXPECT_NE(json.find("\"cache_hit\":true"), std::string::npos);
}

// ---------------------------------------------------------------------------
// FlowService
// ---------------------------------------------------------------------------

TEST(FlowService, MixedGridMatchesSerialLoopByteForByte) {
    // The CI smoke: a small mixed grid — two designs x two seeds x two
    // route-knob settings — through one warm-cached service must equal the
    // plain serial run_flow loop on every job.
    auto adder = asynclib::make_qdi_adder(2);
    auto fifo = asynclib::make_wchb_fifo(2, 2);
    const core::ArchSpec arch;

    std::vector<cad::FlowJob> jobs;
    std::vector<cad::FlowOptions> ref_opts;
    std::vector<const netlist::Netlist*> ref_nl;
    std::vector<const asynclib::MappingHints*> ref_hints;
    for (const bool is_fifo : {false, true}) {
        for (const std::uint64_t seed : {1, 2}) {
            for (const double astar : {1.0, 0.0}) {
                cad::FlowJob j;
                j.name = (is_fifo ? std::string("fifo") : std::string("adder")) + "_s" +
                         std::to_string(seed) + "_a" + std::to_string(astar);
                j.nl = is_fifo ? &fifo.nl : &adder.nl;
                j.hints = is_fifo ? &fifo.hints : &adder.hints;
                j.arch = arch;
                j.opts.seed = seed;
                j.opts.route.astar_fac = astar;
                ref_opts.push_back(j.opts);
                ref_nl.push_back(j.nl);
                ref_hints.push_back(j.hints);
                jobs.push_back(std::move(j));
            }
        }
    }

    cad::FlowService svc;
    const auto ids = svc.submit_grid(std::move(jobs));
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const cad::FlowJobResult& r = svc.wait(ids[i]);
        ASSERT_TRUE(r.ok()) << r.name << ": " << r.error;
        const auto serial = cad::run_flow(*ref_nl[i], *ref_hints[i], arch, ref_opts[i]);
        EXPECT_EQ(testsupport::flow_fingerprint(serial),
                  testsupport::flow_fingerprint(r.result))
            << r.name;
    }
    // The grid repeats upstream work across seeds/knobs, so the shared
    // store must have produced real hits.
    EXPECT_GT(svc.store().hits(), 0u);
}

TEST(FlowService, ConcurrentJobsShareOneStore) {
    // Many concurrent copies of the same compile: whoever wins the race
    // publishes, everyone agrees on the result (also the TSan workout for
    // concurrent get/put/rr_for on one store).
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    const auto solo = cad::run_flow(adder.nl, adder.hints, arch, {});

    cad::FlowServiceOptions so;
    so.threads = 4;
    cad::FlowService svc(so);
    std::vector<cad::FlowJobId> ids;
    for (int i = 0; i < 12; ++i) {
        cad::FlowJob j;
        j.name = "copy" + std::to_string(i);
        j.nl = &adder.nl;
        j.hints = &adder.hints;
        j.arch = arch;
        ids.push_back(svc.submit(std::move(j)));
    }
    svc.wait_all();
    for (cad::FlowJobId id : ids) {
        const cad::FlowJobResult& r = svc.wait(id);
        ASSERT_TRUE(r.ok()) << r.error;
        EXPECT_EQ(testsupport::flow_fingerprint(solo),
                  testsupport::flow_fingerprint(r.result));
    }
    EXPECT_EQ(svc.store().num_rr_graphs(), 1u);
    // Identical jobs share one key chain: five stage artifacts total, and
    // in-flight dedup means concurrent cold jobs waited on the computer
    // instead of publishing duplicates.
    EXPECT_EQ(svc.store().num_artifacts(), 5u);
}

TEST(FlowService, FailuresAreIsolatedPerJob) {
    // The doomed job sits between two fitting ones in one grid, so the
    // three workers run all of them side by side.
    auto big = asynclib::make_qdi_adder(16);
    auto small = asynclib::make_qdi_adder(2);
    core::ArchSpec tiny;  // 8x8 cannot hold the 16-bit adder

    cad::FlowServiceOptions so;
    so.threads = 3;
    cad::FlowService svc(so);
    auto job = [&](const char* name, const asynclib::QdiAdder& d, std::uint64_t seed) {
        cad::FlowJob j;
        j.name = name;
        j.nl = &d.nl;
        j.hints = &d.hints;
        j.arch = tiny;
        j.opts.seed = seed;
        return j;
    };
    std::vector<cad::FlowJob> jobs;
    jobs.push_back(job("fits_a", small, 1));
    jobs.push_back(job("too_big", big, 1));
    jobs.back().opts.route.max_iterations = 5;  // give up on the doomed job quickly
    jobs.push_back(job("fits_b", small, 5));
    const auto ids = svc.submit_grid(std::move(jobs));

    EXPECT_TRUE(svc.wait(ids[0]).ok()) << svc.wait(ids[0]).error;
    EXPECT_EQ(svc.wait(ids[1]).status, cad::FlowJobStatus::Failed);
    EXPECT_FALSE(svc.wait(ids[1]).error.empty());
    EXPECT_TRUE(svc.wait(ids[2]).ok()) << svc.wait(ids[2]).error;
    const std::string report = svc.report_json();
    EXPECT_NE(report.find("\"jobs_ok\":2"), std::string::npos) << report;
    EXPECT_NE(report.find("\"jobs_failed\":1"), std::string::npos) << report;
}

// The place knobs a Submit frame carries reach size casts in the placer.
// Non-finite values pass the wire codec (it carries bit patterns) and must
// then fail their own job by name, leaving the service and its other jobs
// alone.
TEST(FlowService, NonFinitePlaceKnobsFailTheJobByName) {
    auto adder = asynclib::make_qdi_adder(2);
    auto through_wire = [](const cad::FlowOptions& o) {
        cad::BlobWriter w;
        cad::wire::encode_fields(o, w);
        const std::vector<std::uint8_t> bytes = std::move(w).take();
        cad::BlobReader r(bytes);
        return cad::wire::decode_fields<cad::FlowOptions>(r);
    };
    cad::FlowOptions nan_ratio;
    nan_ratio.place.coarsen_ratio = std::numeric_limits<double>::quiet_NaN();
    cad::FlowOptions inf_moves;
    inf_moves.place.moves_scale = std::numeric_limits<double>::infinity();

    cad::FlowService svc;
    auto submit = [&](const char* name, const cad::FlowOptions& opts) {
        cad::FlowJob j;
        j.name = name;
        j.nl = &adder.nl;
        j.hints = &adder.hints;
        j.opts = through_wire(opts);
        return svc.submit(std::move(j));
    };
    const auto id_nan = submit("nan_ratio", nan_ratio);
    const auto id_inf = submit("inf_moves", inf_moves);
    const auto id_ok = submit("fits", {});

    const cad::FlowJobResult& r_nan = svc.wait(id_nan);
    EXPECT_EQ(r_nan.status, cad::FlowJobStatus::Failed);
    EXPECT_NE(r_nan.error.find("coarsen_ratio"), std::string::npos) << r_nan.error;
    const cad::FlowJobResult& r_inf = svc.wait(id_inf);
    EXPECT_EQ(r_inf.status, cad::FlowJobStatus::Failed);
    EXPECT_NE(r_inf.error.find("moves_scale"), std::string::npos) << r_inf.error;
    EXPECT_TRUE(svc.wait(id_ok).ok()) << svc.wait(id_ok).error;
}

// So do the router's cost factors and the PDE margin: a NaN margin reaches
// the bitstream stage's tap arithmetic, a NaN cost factor the router's
// wavefront heap.
TEST(FlowService, NonFiniteRouteAndMarginKnobsFailTheJobByName) {
    auto adder = asynclib::make_qdi_adder(2);
    auto through_wire = [](const cad::FlowOptions& o) {
        cad::BlobWriter w;
        cad::wire::encode_fields(o, w);
        const std::vector<std::uint8_t> bytes = std::move(w).take();
        cad::BlobReader r(bytes);
        return cad::wire::decode_fields<cad::FlowOptions>(r);
    };
    cad::FlowOptions nan_margin;
    nan_margin.pde_extra_margin = std::numeric_limits<double>::quiet_NaN();
    cad::FlowOptions nan_astar;
    nan_astar.route.astar_fac = std::numeric_limits<double>::quiet_NaN();

    cad::FlowService svc;
    auto submit = [&](const char* name, const cad::FlowOptions& opts) {
        cad::FlowJob j;
        j.name = name;
        j.nl = &adder.nl;
        j.hints = &adder.hints;
        j.opts = through_wire(opts);
        return svc.submit(std::move(j));
    };
    const auto id_margin = submit("nan_margin", nan_margin);
    const auto id_astar = submit("nan_astar", nan_astar);
    const auto id_ok = submit("fits", {});

    const cad::FlowJobResult& r_margin = svc.wait(id_margin);
    EXPECT_EQ(r_margin.status, cad::FlowJobStatus::Failed);
    EXPECT_NE(r_margin.error.find("pde_extra_margin"), std::string::npos) << r_margin.error;
    const cad::FlowJobResult& r_astar = svc.wait(id_astar);
    EXPECT_EQ(r_astar.status, cad::FlowJobStatus::Failed);
    EXPECT_NE(r_astar.error.find("astar_fac"), std::string::npos) << r_astar.error;
    EXPECT_TRUE(svc.wait(id_ok).ok()) << svc.wait(id_ok).error;
}

TEST(FlowService, CancelDropsQueuedJobs) {
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    cad::FlowServiceOptions so;
    so.threads = 1;  // one worker: later submissions are very likely queued
    cad::FlowService svc(so);

    std::vector<cad::FlowJobId> ids;
    for (int i = 0; i < 4; ++i) {
        cad::FlowJob j;
        j.name = "job" + std::to_string(i);
        j.nl = &adder.nl;
        j.hints = &adder.hints;
        j.arch = arch;
        ids.push_back(svc.submit(std::move(j)));
    }
    // Cancellation races the worker by design: cancel() returning true must
    // mean the job never runs; false must mean it ran (or already finished)
    // normally.
    const bool cancelled = svc.cancel(ids.back());
    const cad::FlowJobResult& last = svc.wait(ids.back());
    if (cancelled) {
        EXPECT_EQ(last.status, cad::FlowJobStatus::Cancelled);
        EXPECT_EQ(last.wall_ms, 0.0);
    } else {
        EXPECT_TRUE(last.ok()) << last.error;
    }
    // A finished job can never be cancelled.
    (void)svc.wait(ids.front());
    EXPECT_FALSE(svc.cancel(ids.front()));
    svc.wait_all();
}

TEST(FlowService, ReportJsonAggregates) {
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    cad::FlowService svc;
    for (int i = 0; i < 2; ++i) {
        cad::FlowJob j;
        j.name = "r" + std::to_string(i);
        j.nl = &adder.nl;
        j.hints = &adder.hints;
        j.arch = arch;
        (void)svc.submit(std::move(j));
    }
    svc.wait_all();
    const std::string json = svc.report_json();
    for (const char* field :
         {"\"threads\"", "\"hardware_concurrency\"", "\"jobs_total\":2", "\"jobs_ok\":2",
          "\"jobs_cancelled\":0", "\"artifacts\"", "\"rr_graphs\":1", "\"hits\"",
          "\"misses\"", "\"telemetry\"", "\"queue_ms\""})
        EXPECT_NE(json.find(field), std::string::npos) << field << " missing in " << json;
}

// ---------------------------------------------------------------------------
// Two-tier cache through the service
// ---------------------------------------------------------------------------

/// A unique temp directory wiped on construction and destruction.
class ScratchDir {
public:
    explicit ScratchDir(const std::string& name)
        : path_(std::filesystem::temp_directory_path() / ("afpga_flowsvc_" + name)) {
        std::filesystem::remove_all(path_);
    }
    ~ScratchDir() { std::filesystem::remove_all(path_); }
    [[nodiscard]] std::string str() const { return path_.string(); }

private:
    std::filesystem::path path_;
};

cad::FlowJob adder_job(const std::string& name, const asynclib::QdiAdder& d,
                       const core::ArchSpec& arch, std::uint64_t seed = 1) {
    cad::FlowJob j;
    j.name = name;
    j.nl = &d.nl;
    j.hints = &d.hints;
    j.arch = arch;
    j.opts.seed = seed;
    return j;
}

TEST(FlowServiceDiskCache, RestartOverOneCacheDirIsBitIdenticalAllFromDisk) {
    // A service restarted over the same cache directory must restore every
    // stage from disk — no recompute — and produce a byte-identical flow.
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    ScratchDir dir("restart");

    std::string cold_fp;
    {
        cad::FlowServiceOptions so;
        so.artifact_cache_dir = dir.str();
        cad::FlowService svc(so);
        const auto id = svc.submit(adder_job("cold", adder, arch));
        const cad::FlowJobResult& r = svc.wait(id);
        ASSERT_TRUE(r.ok()) << r.error;
        expect_hits(r.result.telemetry, {false, false, false, false, false}, "cold");
        cold_fp = testsupport::flow_fingerprint(r.result);
        EXPECT_GE(svc.store().stats().disk_writes, 5u);
    }  // service destroyed: only the disk blobs survive

    cad::FlowServiceOptions so;
    so.artifact_cache_dir = dir.str();
    cad::FlowService svc(so);
    const auto id = svc.submit(adder_job("warm", adder, arch));
    const cad::FlowJobResult& r = svc.wait(id);
    ASSERT_TRUE(r.ok()) << r.error;
    expect_hits(r.result.telemetry, {true, true, true, true, true}, "disk warm");
    for (const auto& s : r.result.telemetry.stages) {
        const double* from_disk = s.metric("restored_from_disk");
        ASSERT_NE(from_disk, nullptr) << s.stage << " was not restored from disk";
        EXPECT_EQ(*from_disk, 1.0) << s.stage;
    }
    EXPECT_EQ(testsupport::flow_fingerprint(r.result), cold_fp);
    const cad::ArtifactStoreStats st = svc.store().stats();
    EXPECT_GE(st.disk_hits, 5u);
    EXPECT_EQ(st.disk_bad_blobs, 0u);
}

TEST(FlowServiceDiskCache, MemoryBudgetHoldsWhileDiskKeepsResultsIdentical) {
    // A tight memory budget forces evictions mid-grid; the disk tier absorbs
    // them, the cap is never exceeded, and every job still matches the
    // serial uncached compile byte for byte.
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    ScratchDir dir("budget");

    cad::FlowServiceOptions so;
    so.threads = 2;
    so.artifact_memory_budget_bytes = 8 * 1024;  // far below one grid's products
    so.artifact_cache_dir = dir.str();
    cad::FlowService svc(so);

    std::vector<cad::FlowJobId> ids;
    std::vector<std::uint64_t> seeds = {1, 2, 3};
    for (const auto seed : seeds)
        ids.push_back(svc.submit(adder_job("s" + std::to_string(seed), adder, arch, seed)));
    svc.wait_all();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const cad::FlowJobResult& r = svc.wait(ids[i]);
        ASSERT_TRUE(r.ok()) << r.name << ": " << r.error;
        cad::FlowOptions o;
        o.seed = seeds[i];
        const auto serial = cad::run_flow(adder.nl, adder.hints, arch, o);
        EXPECT_EQ(testsupport::flow_fingerprint(serial),
                  testsupport::flow_fingerprint(r.result))
            << r.name;
    }
    const cad::ArtifactStoreStats st = svc.store().stats();
    EXPECT_LE(st.resident_bytes, st.memory_budget_bytes);
    EXPECT_GT(st.evictions, 0u);
    EXPECT_EQ(st.memory_budget_bytes, 8u * 1024u);
}

TEST(FlowServiceDiskCache, ReportJsonCarriesTierFields) {
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    ScratchDir dir("report");
    cad::FlowServiceOptions so;
    so.artifact_memory_budget_bytes = 1 << 20;
    so.artifact_cache_dir = dir.str();
    cad::FlowService svc(so);
    (void)svc.submit(adder_job("one", adder, arch));
    svc.wait_all();
    const std::string json = svc.report_json();
    for (const char* field :
         {"\"artifact_cache_dir\"", "\"disk_hits\"", "\"evictions\"", "\"collisions\"",
          "\"resident_bytes\"", "\"memory_budget_bytes\":1048576", "\"disk_writes\"",
          "\"disk_write_failures\"", "\"disk_bad_blobs\"", "\"rr_hits\"", "\"rr_misses\""})
        EXPECT_NE(json.find(field), std::string::npos) << field << " missing in " << json;
}

// A worker count from outside (a daemon flag, AFPGA_THREADS) used to reach
// ThreadPool unchecked; past the cap the service must refuse, by name,
// before any thread starts.
TEST(FlowService, RejectsWorkerCountAboveCap) {
    auto expect_rejected = [](const cad::FlowServiceOptions& so, const char* what) {
        try {
            cad::FlowService svc(so);
            ADD_FAILURE() << what << ": a " << svc.threads() << "-worker service started";
        } catch (const base::Error& e) {
            EXPECT_NE(std::string(e.what()).find("threads"), std::string::npos) << e.what();
        }
    };
    cad::FlowServiceOptions so;
    so.threads = 257;
    expect_rejected(so, "threads = 257");

    // threads = 0 resolves through AFPGA_THREADS.
    const char* prev = std::getenv("AFPGA_THREADS");
    const std::string saved = prev ? prev : "";
    ::setenv("AFPGA_THREADS", "257", 1);
    expect_rejected(cad::FlowServiceOptions{}, "AFPGA_THREADS=257");
    if (prev)
        ::setenv("AFPGA_THREADS", saved.c_str(), 1);
    else
        ::unsetenv("AFPGA_THREADS");
}

TEST(FlowService, PrewarmedRrIsSharedIntoResults) {
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    cad::FlowService svc;
    const auto rr = svc.prewarm_rr(arch);
    std::vector<cad::FlowJob> jobs;
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        jobs.push_back(adder_job("warm_rr_s" + std::to_string(seed), adder, arch, seed));
    const auto ids = svc.submit_grid(std::move(jobs));
    for (const cad::FlowJobId id : ids) {
        const cad::FlowJobResult& r = svc.wait(id);
        ASSERT_TRUE(r.ok()) << r.name << ": " << r.error;
        EXPECT_EQ(r.result.rr.get(), rr.get()) << r.name;  // one graph end to end
        const cad::StageReport* route = r.result.telemetry.stage("route");
        ASSERT_NE(route, nullptr) << r.name;
        // The route stage took the graph from the service's store.
        EXPECT_NE(route->metric("rr_store_ms"), nullptr) << r.name;
    }
}

TEST(FlowServiceScheduling, PriorityOrdersDispatchAcrossSubmissionOrder) {
    // Queue four jobs while dispatch is paused; on resume the scheduler must
    // start them by priority (desc), then submission order — regardless of
    // the order they were submitted in.
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    cad::FlowServiceOptions so;
    so.threads = 1;
    cad::FlowService svc(so);
    svc.pause();
    auto job = [&](const char* name, int prio, std::uint64_t seed) {
        cad::FlowJob j = adder_job(name, adder, arch, seed);
        j.priority = prio;
        return svc.submit(std::move(j));
    };
    const auto a = job("a_p0", 0, 1);
    const auto b = job("b_p0", 0, 2);
    const auto c = job("c_p2", 2, 3);
    const auto d = job("d_p1", 1, 4);
    EXPECT_EQ(svc.peek(c).start_seq, 0u);  // nothing started while paused
    svc.resume();
    svc.wait_all();
    EXPECT_EQ(svc.wait(c).start_seq, 1u);
    EXPECT_EQ(svc.wait(d).start_seq, 2u);
    EXPECT_EQ(svc.wait(a).start_seq, 3u);
    EXPECT_EQ(svc.wait(b).start_seq, 4u);
    for (const auto id : {a, b, c, d}) EXPECT_TRUE(svc.wait(id).ok());
}

TEST(FlowServiceScheduling, EqualPriorityRoundRobinsAcrossLanes) {
    // Lane 1 floods the queue with three jobs before lane 2 submits its
    // three: dispatch must still alternate lanes (least-recently-started
    // lane first), so a flooding client cannot starve the other.
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    cad::FlowServiceOptions so;
    so.threads = 1;
    cad::FlowService svc(so);
    svc.pause();
    std::vector<cad::FlowJobId> lane1, lane2;
    for (int i = 0; i < 3; ++i) {
        cad::FlowJob j = adder_job("l1_" + std::to_string(i), adder, arch, i + 1);
        j.lane = 1;
        lane1.push_back(svc.submit(std::move(j)));
    }
    for (int i = 0; i < 3; ++i) {
        cad::FlowJob j = adder_job("l2_" + std::to_string(i), adder, arch, i + 4);
        j.lane = 2;
        lane2.push_back(svc.submit(std::move(j)));
    }
    svc.resume();
    svc.wait_all();
    // Expected interleave: l1_0 l2_0 l1_1 l2_1 l1_2 l2_2.
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(svc.wait(lane1[i]).start_seq, static_cast<std::uint64_t>(2 * i + 1)) << i;
        EXPECT_EQ(svc.wait(lane2[i]).start_seq, static_cast<std::uint64_t>(2 * i + 2)) << i;
    }
}

TEST(FlowServiceScheduling, CancelRacingWaitAllNeverHangs) {
    // wait_all() parks on "every job terminal"; cancelling queued jobs from
    // another thread is one of the transitions that must wake it.
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    cad::FlowServiceOptions so;
    so.threads = 1;
    cad::FlowService svc(so);
    svc.pause();
    std::vector<cad::FlowJobId> ids;
    for (int i = 0; i < 4; ++i)
        ids.push_back(svc.submit(adder_job("j" + std::to_string(i), adder, arch, i + 1)));
    std::thread waiter([&] { svc.wait_all(); });
    EXPECT_TRUE(svc.cancel(ids[2]));
    EXPECT_TRUE(svc.cancel(ids[3]));
    svc.resume();
    waiter.join();  // hangs here if a cancel transition fails to notify
    EXPECT_TRUE(svc.wait(ids[0]).ok());
    EXPECT_TRUE(svc.wait(ids[1]).ok());
    EXPECT_EQ(svc.wait(ids[2]).status, cad::FlowJobStatus::Cancelled);
    EXPECT_EQ(svc.wait(ids[3]).status, cad::FlowJobStatus::Cancelled);
}

TEST(FlowServiceScheduling, PausedServiceDestructorStillDrains) {
    // Destroying a paused service with queued jobs must not deadlock: the
    // destructor resumes dispatch implicitly and drains the queue.
    auto adder = asynclib::make_qdi_adder(2);
    const core::ArchSpec arch;
    std::atomic<int> finished{0};
    {
        cad::FlowServiceOptions so;
        so.threads = 1;
        so.on_job_finished = [&](cad::FlowJobId) { finished.fetch_add(1); };
        cad::FlowService svc(so);
        svc.pause();
        (void)svc.submit(adder_job("one", adder, arch, 1));
        (void)svc.submit(adder_job("two", adder, arch, 2));
        EXPECT_EQ(svc.num_pending(), 2u);
    }  // destructor: resume + drain
    EXPECT_EQ(finished.load(), 2);
}

}  // namespace
