// The content-addressing layer: Fingerprint/key hygiene, netlist, option
// and architecture fingerprints over their codec bytes (the
// exhaustive-field, sink-order and sub-0.001-Fc regressions the artifact
// cache's soundness rests on), ArtifactStore semantics: the two cache tiers
// (LRU byte budget, disk blobs), the per-architecture RR memo and their
// concurrency contracts (this file runs under the TSan CI leg), restores
// that report what their run reported, and the blob decoders under
// byte-level mutation (and under the ASan leg).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "asynclib/adders.hpp"
#include "asynclib/fifos.hpp"
#include "base/check.hpp"
#include "cad/artifact.hpp"
#include "cad/fingerprint.hpp"
#include "cad/flow.hpp"
#include "cad/serialize.hpp"
#include "cad/wire.hpp"
#include "core/archspec.hpp"

namespace {

using namespace afpga;
namespace fs = std::filesystem;

/// A fresh per-test scratch directory for disk-tier tests, removed on exit.
class ScratchDir {
public:
    ScratchDir() {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        path_ = fs::temp_directory_path() /
                (std::string("afpga_artifact_") + info->test_suite_name() + "_" + info->name());
        fs::remove_all(path_);
    }
    ~ScratchDir() {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    [[nodiscard]] std::string str() const { return path_.string(); }
    [[nodiscard]] const fs::path& path() const { return path_; }

private:
    fs::path path_;
};

/// A Placement whose budget cost and identity are easy to control: the
/// trajectory payload dominates approx_bytes and `final_cost` tags which
/// artifact this is.
std::shared_ptr<const cad::Placement> make_placement(double tag, std::size_t traj_len = 0) {
    cad::Placement pl;
    pl.final_cost = tag;
    pl.cost_trajectory.assign(traj_len, tag);
    return std::make_shared<const cad::Placement>(std::move(pl));
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

TEST(Fingerprint, OrderAndValueSensitive) {
    auto digest = [](auto... vs) {
        cad::Fingerprint f;
        (f.mix(vs), ...);
        return f.digest();
    };
    EXPECT_NE(digest(1, 2), digest(2, 1));
    EXPECT_NE(digest(1), digest(1, 0));
    EXPECT_NE(digest(0.5), digest(0.25));
    EXPECT_NE(digest(-0.0), digest(0.0));  // exact bit patterns
    EXPECT_EQ(digest(std::uint64_t{7}, true), digest(std::uint64_t{7}, true));
}

TEST(Fingerprint, StringsArePrefixUnambiguous) {
    auto digest = [](std::string_view a, std::string_view b) {
        cad::Fingerprint f;
        f.mix(a).mix(b);
        return f.digest();
    };
    EXPECT_NE(digest("ab", "c"), digest("a", "bc"));
    EXPECT_NE(digest("", "x"), digest("x", ""));
    EXPECT_EQ(digest("route", "x"), digest("route", "x"));
}

TEST(Fingerprint, ChainKeyDependsOnEveryPart) {
    const cad::ArtifactKey base = 0x1234;
    const cad::ArtifactKey k = cad::chain_key(base, "pack", 7);
    EXPECT_NE(k, cad::chain_key(base + 1, "pack", 7));
    EXPECT_NE(k, cad::chain_key(base, "place", 7));
    EXPECT_NE(k, cad::chain_key(base, "pack", 8));
    EXPECT_EQ(k, cad::chain_key(0x1234, "pack", 7));
}

// ---------------------------------------------------------------------------
// Netlist / hints fingerprints
// ---------------------------------------------------------------------------

TEST(NetlistFingerprint, DeterministicAcrossGeneratorRuns) {
    const auto a = asynclib::make_qdi_adder(2);
    const auto b = asynclib::make_qdi_adder(2);
    EXPECT_EQ(cad::fingerprint_netlist(a.nl), cad::fingerprint_netlist(b.nl));
    EXPECT_EQ(cad::fingerprint_hints(a.hints), cad::fingerprint_hints(b.hints));
}

TEST(NetlistFingerprint, DistinguishesDesignsAndHints) {
    const auto a2 = asynclib::make_qdi_adder(2);
    const auto a3 = asynclib::make_qdi_adder(3);
    EXPECT_NE(cad::fingerprint_netlist(a2.nl), cad::fingerprint_netlist(a3.nl));
    EXPECT_NE(cad::fingerprint_hints(a2.hints), cad::fingerprint_hints(a3.hints));
    EXPECT_NE(cad::fingerprint_hints(a2.hints), cad::fingerprint_hints({}));
}

TEST(NetlistFingerprint, SensitiveToNamesAndStructure) {
    netlist::Netlist a("t");
    const auto ia = a.add_input("x");
    a.add_output("y", a.add_cell(netlist::CellFunc::Inv, "g", {ia}));

    netlist::Netlist b("t");
    const auto ib = b.add_input("x");
    b.add_output("z", b.add_cell(netlist::CellFunc::Inv, "g", {ib}));  // PO renamed

    netlist::Netlist c("t");
    const auto ic = c.add_input("x");
    c.add_output("y", c.add_cell(netlist::CellFunc::Buf, "g", {ic}));  // function changed

    const auto fa = cad::fingerprint_netlist(a);
    EXPECT_NE(fa, cad::fingerprint_netlist(b));
    EXPECT_NE(fa, cad::fingerprint_netlist(c));
}

/// `nl` with every net's sink list reversed, round-tripped through the wire
/// codec as a served job would arrive. Each sink keeps its (cell, pin), so
/// only the order the construction history left behind changes.
netlist::Netlist reverse_sinks(const netlist::Netlist& nl) {
    std::vector<netlist::Cell> cells;
    for (netlist::CellId id : nl.cell_ids()) cells.push_back(nl.cell(id));
    std::vector<netlist::Net> nets;
    for (netlist::NetId id : nl.net_ids()) {
        netlist::Net n = nl.net(id);
        std::reverse(n.sinks.begin(), n.sinks.end());
        nets.push_back(std::move(n));
    }
    const auto reversed = netlist::Netlist::from_parts(
        nl.name(), std::move(cells), std::move(nets), nl.primary_inputs(), nl.primary_outputs());
    cad::BlobWriter w;
    cad::encode_fields(reversed, w);
    cad::BlobReader r(w.bytes());
    return cad::decode_fields<netlist::Netlist>(r);
}

/// The per-stage artifact keys `run_flow` reports, in pipeline order.
std::vector<std::string> stage_keys(const cad::FlowResult& fr) {
    std::vector<std::string> keys;
    for (const cad::StageReport& s : fr.telemetry.stages) keys.push_back(s.cache_key);
    return keys;
}

TEST(NetlistFingerprint, SinkOrderIsPartOfTheKey) {
    // Techmap's traversals observe sink order, so a netlist that differs
    // only there maps differently and must not restore the original's
    // artifacts.
    const auto adder = asynclib::make_micropipeline_adder(2);
    const netlist::Netlist reversed = reverse_sinks(adder.nl);
    EXPECT_NE(cad::fingerprint_netlist(adder.nl), cad::fingerprint_netlist(reversed));

    const core::ArchSpec arch;
    auto store = std::make_shared<cad::ArtifactStore>();
    cad::FlowOptions cached;
    cached.artifact_store = store;
    (void)cad::run_flow(adder.nl, {}, arch, cached);
    const auto shared = cad::run_flow(reversed, {}, arch, cached);
    const cad::StageReport* tm = shared.telemetry.stage("techmap");
    ASSERT_NE(tm, nullptr);
    EXPECT_EQ(tm->cache_hit, 0) << "the reversed netlist restored the original's mapping";

    const auto cold = cad::run_flow(reversed, {}, arch, {});
    EXPECT_EQ(*shared.bits, *cold.bits)
        << "a shared store changed the reversed netlist's bitstream";
}

// ---------------------------------------------------------------------------
// Option-struct fingerprints: a stage key hashes its option struct's wire
// field list, so every field the list carries must feed the digest (the
// place and route keys then zero `threads`, see FlowIgnoresPlumbingFields).
// Each case lists one mutation per field; all resulting fingerprints (plus
// the default's) must be pairwise distinct. The field lists' sizeof pins
// catch NEW fields at compile time; these tests catch a field a list skips.
// ---------------------------------------------------------------------------

template <typename Opts, typename... Mutators>
void expect_every_field_counts(Mutators... mutators) {
    auto fingerprint = [&](const Opts& o) {
        return cad::fingerprint_encoding(
            [&](cad::BlobWriter& w) { cad::encode_fields(o, w); });
    };
    std::set<std::uint64_t> seen;
    seen.insert(fingerprint(Opts{}));
    auto apply = [&](auto&& m) {
        Opts o;
        m(o);
        EXPECT_TRUE(seen.insert(fingerprint(o)).second)
            << "a field mutation did not change the fingerprint";
    };
    (apply(mutators), ...);
}

TEST(OptionFingerprint, TechmapEveryFieldCounts) {
    expect_every_field_counts<cad::TechmapOptions>(
        [](auto& o) { o.use_rail_pair_hints = false; },
        [](auto& o) { o.absorb_validity = false; },
        [](auto& o) { o.greedy_pairing = false; },
        [](auto& o) { o.pairing_window = 65; });
}

TEST(OptionFingerprint, PackEveryFieldCounts) {
    expect_every_field_counts<cad::PackOptions>(
        [](auto& o) { o.affinity_clustering = false; });
}

TEST(OptionFingerprint, PlaceEveryFieldCounts) {
    expect_every_field_counts<cad::PlaceOptions>(
        [](auto& o) { o.seed = 2; }, [](auto& o) { o.moves_scale = 11.0; },
        // Single-valued, but still hashed: a retired tag must not alias.
        [](auto& o) { o.algorithm = static_cast<cad::PlaceAlgorithm>(0); },
        [](auto& o) { o.threads = 3; }, [](auto& o) { o.solver_passes = 5; },
        [](auto& o) { o.solver_max_iters = 60; }, [](auto& o) { o.polish_rounds = 3; },
        [](auto& o) { o.solver_tolerance = 1e-6; },
        [](auto& o) { o.anchor_weight = 0.25; },
        [](auto& o) { o.coarsen_ratio = 0.4; }, [](auto& o) { o.min_coarse_nodes = 32; },
        [](auto& o) { o.max_levels = 4; });
}

TEST(OptionFingerprint, RouterEveryFieldCounts) {
    expect_every_field_counts<cad::RouterOptions>(
        [](auto& o) { o.max_iterations = 41; }, [](auto& o) { o.pres_fac_first = 0.7; },
        [](auto& o) { o.pres_fac_mult = 1.8; }, [](auto& o) { o.hist_fac = 1.5; },
        [](auto& o) { o.astar_fac = 0.5; }, [](auto& o) { o.stall_full_reroute = 5; },
        [](auto& o) { o.threads = 2; }, [](auto& o) { o.bin_margin = 2; },
        [](auto& o) { o.min_bin_dim = 5; });
}

TEST(OptionFingerprint, FlowEverySemanticFieldCounts) {
    // Through run_flow itself: every semantic field must reach some stage's
    // key, and no two mutations may produce the same key sequence.
    const auto adder = asynclib::make_qdi_adder(1);
    const core::ArchSpec arch;
    auto store = std::make_shared<cad::ArtifactStore>();
    auto keys_with = [&](auto&& mutate) {
        cad::FlowOptions o;
        o.artifact_store = store;
        mutate(o);
        return stage_keys(cad::run_flow(adder.nl, adder.hints, arch, o));
    };
    std::set<std::vector<std::string>> seen;
    seen.insert(keys_with([](auto&) {}));
    auto apply = [&](auto&& m) {
        EXPECT_TRUE(seen.insert(keys_with(m)).second)
            << "a field mutation changed no stage key";
    };
    apply([](auto& o) { o.seed = 2; });
    apply([](auto& o) { o.techmap.pairing_window = 65; });
    apply([](auto& o) { o.pack.affinity_clustering = false; });
    apply([](auto& o) { o.place.moves_scale = 11.0; });
    apply([](auto& o) { o.route.max_iterations = 41; });
    apply([](auto& o) { o.pde_extra_margin = 0.5; });
    apply([](auto& o) { o.verify_mapping = false; });
}

TEST(OptionFingerprint, FlowIgnoresPlumbingFields) {
    const auto adder = asynclib::make_qdi_adder(1);
    const core::ArchSpec arch;
    cad::FlowOptions o;
    o.artifact_store = std::make_shared<cad::ArtifactStore>();
    const auto base = stage_keys(cad::run_flow(adder.nl, adder.hints, arch, o));
    o.prebuilt_rr = std::make_shared<core::RRGraph>(arch);
    o.artifact_store = std::make_shared<cad::ArtifactStore>();
    o.place.threads = 3;
    o.route.threads = 2;
    EXPECT_EQ(base, stage_keys(cad::run_flow(adder.nl, adder.hints, arch, o)))
        << "prebuilt_rr/artifact_store and the thread counts change where or how fast "
           "products are made, not what they are — they must not invalidate artifacts";
}

// ---------------------------------------------------------------------------
// ArtifactStore
// ---------------------------------------------------------------------------

TEST(ArtifactStore, PutGetRoundtripAndStats) {
    cad::ArtifactStore store;
    EXPECT_EQ(store.get<cad::Placement>(1), nullptr);  // miss
    auto pl = std::make_shared<const cad::Placement>();
    store.put(1, pl);
    EXPECT_EQ(store.get<cad::Placement>(1), pl);  // hit
    EXPECT_EQ(store.num_artifacts(), 1u);
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.misses(), 1u);
}

TEST(ArtifactStore, TypeMismatchIsAMiss) {
    cad::ArtifactStore store;
    store.put(7, std::make_shared<const cad::Placement>());
    EXPECT_EQ(store.get<cad::MappedDesign>(7), nullptr);
    EXPECT_EQ(store.get<cad::Placement>(7) != nullptr, true);
}

TEST(ArtifactStore, FirstPublishWins) {
    cad::ArtifactStore store;
    auto first = std::make_shared<const cad::Placement>();
    store.put(3, first);
    store.put(3, std::make_shared<const cad::Placement>());
    EXPECT_EQ(store.get<cad::Placement>(3), first);
    EXPECT_EQ(store.num_artifacts(), 1u);
}

TEST(ArtifactStore, InflightDedupHandsOffToWaiters) {
    cad::ArtifactStore store;
    ASSERT_TRUE(store.begin_compute(9));  // first claimant owns the key

    // A second claimant blocks until the computer publishes + finishes,
    // then sees the published key (false = re-get it).
    std::promise<bool> waiter_saw;
    std::thread waiter(
        [&] { waiter_saw.set_value(store.begin_compute(9)); });
    store.put(9, std::make_shared<const cad::Placement>());
    store.finish_compute(9);
    auto fut = waiter_saw.get_future();
    EXPECT_FALSE(fut.get());
    waiter.join();

    // Published keys are never claimable again.
    EXPECT_FALSE(store.begin_compute(9));
}

TEST(ArtifactStore, FailedComputerPassesOwnershipOn) {
    cad::ArtifactStore store;
    ASSERT_TRUE(store.begin_compute(5));
    store.finish_compute(5);  // computer "failed": finished without put()
    EXPECT_TRUE(store.begin_compute(5));  // the key is claimable again
    store.finish_compute(5);
}

TEST(ArtifactStore, ClearDropsArtifactsAndRrMemo) {
    cad::ArtifactStore store;
    store.put(1, std::make_shared<const cad::Placement>());
    (void)store.rr_for(core::ArchSpec{});
    EXPECT_EQ(store.num_artifacts(), 1u);
    EXPECT_EQ(store.num_rr_graphs(), 1u);
    store.clear();
    EXPECT_EQ(store.num_artifacts(), 0u);
    EXPECT_EQ(store.num_rr_graphs(), 0u);
    EXPECT_EQ(store.get<cad::Placement>(1), nullptr);
    // The store keeps working after a clear.
    store.put(1, std::make_shared<const cad::Placement>());
    EXPECT_NE(store.get<cad::Placement>(1), nullptr);
}

// Regression (cross-type key collision): put() used to map_.emplace, so a
// 64-bit key collision with a differently-typed entry silently dropped the
// recomputed product — every later get() missed, every later put() was
// dropped again: a permanent recompute wedge. The new product must replace
// the colliding entry (and be counted).
TEST(ArtifactStore, PutCollisionAcrossTypesReplaces) {
    cad::ArtifactStore store;
    store.put(7, make_placement(1.0));
    store.put(7, std::make_shared<const cad::MappedDesign>());
    EXPECT_NE(store.get<cad::MappedDesign>(7), nullptr)
        << "colliding publish was dropped: the key is wedged for this type";
    EXPECT_EQ(store.stats().collisions, 1u);
    // Latest writer wins across types; the displaced product is gone.
    EXPECT_EQ(store.get<cad::Placement>(7), nullptr);
    EXPECT_EQ(store.num_artifacts(), 1u);
}

// ---------------------------------------------------------------------------
// Memory tier: byte budget + LRU eviction
// ---------------------------------------------------------------------------

TEST(ArtifactStore, LruEvictsLeastRecentlyUsedUnderByteBudget) {
    const std::size_t one = cad::ArtifactCodec<cad::Placement>::approx_bytes(
        *make_placement(0.0, 1000));
    const std::size_t budget = 2 * one + one / 2;  // room for two, not three
    cad::ArtifactStore store(cad::ArtifactStoreConfig{budget, ""});

    store.put(1, make_placement(1.0, 1000));
    store.put(2, make_placement(2.0, 1000));
    EXPECT_NE(store.get<cad::Placement>(1), nullptr);  // 1 is now more recent than 2
    store.put(3, make_placement(3.0, 1000));           // over budget: evict 2

    EXPECT_EQ(store.get<cad::Placement>(2), nullptr) << "LRU entry should be evicted";
    EXPECT_NE(store.get<cad::Placement>(1), nullptr);
    EXPECT_NE(store.get<cad::Placement>(3), nullptr);
    const auto st = store.stats();
    EXPECT_EQ(st.evictions, 1u);
    EXPECT_EQ(st.num_artifacts, 2u);
    EXPECT_LE(st.resident_bytes, budget);

    // The cap is strict: an artifact larger than the whole budget is
    // admitted-and-evicted immediately. The caller's shared_ptr keeps the
    // product alive; only the cache reference is dropped.
    auto huge = make_placement(9.0, 50000);
    store.put(99, huge);
    EXPECT_EQ(store.get<cad::Placement>(99), nullptr);
    EXPECT_LE(store.stats().resident_bytes, budget);
    EXPECT_EQ(huge->cost_trajectory.size(), 50000u);
}

TEST(ArtifactStore, EvictionNeverInvalidatesReaders) {
    const std::size_t one = cad::ArtifactCodec<cad::Placement>::approx_bytes(
        *make_placement(0.0, 1000));
    cad::ArtifactStore store(cad::ArtifactStoreConfig{3 * one, ""});
    constexpr std::uint64_t kKeys = 200;

    // One writer churns the tiny tier (constant eviction); readers hold the
    // shared_ptrs they win across further churn and verify the content
    // never changes underneath them.
    std::thread writer([&] {
        for (std::uint64_t k = 1; k <= kKeys; ++k)
            store.put(k, make_placement(static_cast<double>(k), 1000));
    });
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
        readers.emplace_back([&] {
            std::vector<std::shared_ptr<const cad::Placement>> held;
            for (std::uint64_t k = 1; k <= kKeys; ++k) {
                if (auto p = store.get<cad::Placement>(k)) {
                    EXPECT_EQ(p->final_cost, static_cast<double>(k));
                    EXPECT_EQ(p->cost_trajectory.size(), 1000u);
                    held.push_back(std::move(p));
                }
            }
            for (std::size_t i = 0; i < held.size(); ++i)
                EXPECT_EQ(held[i]->cost_trajectory.size(), 1000u);
        });
    }
    writer.join();
    for (auto& t : readers) t.join();
    EXPECT_GT(store.stats().evictions, 0u);
    EXPECT_LE(store.stats().resident_bytes, 3 * one);
}

TEST(ArtifactStore, InflightComputeSpansEvictionAndClear) {
    const std::size_t one = cad::ArtifactCodec<cad::Placement>::approx_bytes(
        *make_placement(0.0, 1000));
    cad::ArtifactStore store(cad::ArtifactStoreConfig{2 * one, ""});
    ASSERT_TRUE(store.begin_compute(42));

    std::promise<bool> waiter_claimed;
    std::thread waiter([&] { waiter_claimed.set_value(store.begin_compute(42)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    // While the compute is in flight: a clear() and enough churn to force
    // evictions. Neither may disturb the claim or the waiter.
    store.clear();
    for (std::uint64_t k = 100; k < 108; ++k)
        store.put(k, make_placement(static_cast<double>(k), 1000));

    store.put(42, make_placement(42.0, 10));
    store.finish_compute(42);
    const bool claimed = waiter_claimed.get_future().get();
    waiter.join();
    if (claimed) {
        // Legal under a tiny budget: the fresh product was evicted before
        // the waiter woke, so ownership passed on. Honor the contract.
        store.finish_compute(42);
    } else {
        const auto got = store.get<cad::Placement>(42);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got->final_cost, 42.0);
    }
}

// ---------------------------------------------------------------------------
// Disk tier
// ---------------------------------------------------------------------------

TEST(ArtifactStore, DiskTierRestoresAcrossStores) {
    ScratchDir dir;
    {
        cad::ArtifactStore writer(cad::ArtifactStoreConfig{0, dir.str()});
        writer.put(77, make_placement(3.5, 16));
        EXPECT_EQ(writer.stats().disk_writes, 1u);
    }  // "process restart": the first store is gone, only the blobs remain

    cad::ArtifactStore reader(cad::ArtifactStoreConfig{0, dir.str()});
    cad::ArtifactTier tier = cad::ArtifactTier::Memory;
    const auto got = reader.get<cad::Placement>(77, &tier);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(tier, cad::ArtifactTier::Disk);
    EXPECT_EQ(got->final_cost, 3.5);
    EXPECT_EQ(got->cost_trajectory.size(), 16u);
    EXPECT_EQ(reader.stats().disk_hits, 1u);

    // The restore was re-admitted: the next get is a memory hit on the
    // exact same object.
    EXPECT_EQ(reader.get<cad::Placement>(77, &tier), got);
    EXPECT_EQ(tier, cad::ArtifactTier::Memory);
}

TEST(ArtifactStore, ClearKeepsDiskTier) {
    ScratchDir dir;
    cad::ArtifactStore store(cad::ArtifactStoreConfig{0, dir.str()});
    store.put(3, make_placement(8.0));
    store.clear();
    EXPECT_EQ(store.num_artifacts(), 0u);
    const auto got = store.get<cad::Placement>(3);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->final_cost, 8.0);
    EXPECT_EQ(store.stats().disk_hits, 1u);
}

TEST(ArtifactStore, DiskBlobTypeMismatchIsAMissNotCorruption) {
    ScratchDir dir;
    {
        cad::ArtifactStore writer(cad::ArtifactStoreConfig{0, dir.str()});
        writer.put(5, make_placement(1.0));
    }
    cad::ArtifactStore reader(cad::ArtifactStoreConfig{0, dir.str()});
    EXPECT_EQ(reader.get<cad::MappedDesign>(5), nullptr);
    const auto st = reader.stats();
    EXPECT_EQ(st.disk_bad_blobs, 0u);  // a foreign type is a miss, not damage
    EXPECT_EQ(st.misses, 1u);
}

TEST(ArtifactStore, CorruptDiskBlobIsAMissNeverACrash) {
    ScratchDir dir;
    {
        cad::ArtifactStore writer(cad::ArtifactStoreConfig{0, dir.str()});
        writer.put(9, make_placement(4.0, 32));
    }
    const fs::path blob = dir.path() / cad::key_hex(9);
    ASSERT_TRUE(fs::exists(blob));
    std::vector<char> original;
    {
        std::ifstream in(blob, std::ios::binary);
        original.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    ASSERT_GT(original.size(), 48u);

    auto write_blob = [&](const std::vector<char>& bytes) {
        std::ofstream out(blob, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    };
    auto expect_miss = [&](std::uint64_t min_bad) {
        cad::ArtifactStore reader(cad::ArtifactStoreConfig{0, dir.str()});
        EXPECT_EQ(reader.get<cad::Placement>(9), nullptr);
        EXPECT_GE(reader.stats().disk_bad_blobs, min_bad);
    };

    // Truncated header.
    write_blob(std::vector<char>(original.begin(), original.begin() + 10));
    expect_miss(1);
    // Truncated payload.
    write_blob(std::vector<char>(original.begin(), original.end() - 8));
    expect_miss(1);
    // Flipped payload byte (checksum catches it).
    {
        std::vector<char> flipped = original;
        const std::size_t last = flipped.size() - 1;
        flipped.at(last) = static_cast<char>(flipped.at(last) ^ 0x5a);
        write_blob(flipped);
        expect_miss(1);
    }
    // Not a blob at all / empty file.
    write_blob({'j', 'u', 'n', 'k'});
    expect_miss(1);
    write_blob({});
    expect_miss(1);

    // The pristine blob still restores.
    write_blob(original);
    cad::ArtifactStore reader(cad::ArtifactStoreConfig{0, dir.str()});
    const auto got = reader.get<cad::Placement>(9);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->final_cost, 4.0);
}

TEST(ArtifactStore, OlderFormatVersionDiskBlobsAreStaleMisses) {
    // Format 4 predates the Race replica change, format 5 the partitioned
    // router at `route.threads = 0`, format 6 carries the retired replica
    // and engine fields in its Placement blobs, format 7 predates the
    // assembly-order B2B sums that moved some placements, format 8 carries
    // wall times in its Placement and RouteArtifact blobs, and format 9 the
    // schedule-dependent allocation counts in its RouteArtifact blobs: such a
    // blob can name a product the current code cannot produce, or not decode
    // at all, so an older header must read as a stale blob, never a hit.
    for (const char version : {char{4}, char{5}, char{6}, char{7}, char{8}, char{9}}) {
        ScratchDir dir;
        {
            cad::ArtifactStore writer(cad::ArtifactStoreConfig{0, dir.str()});
            writer.put(21, make_placement(6.0, 8));
        }
        const fs::path blob = dir.path() / cad::key_hex(21);
        std::vector<char> bytes;
        {
            std::ifstream in(blob, std::ios::binary);
            bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
        }
        ASSERT_GT(bytes.size(), 8u);
        // The header's little-endian u32 format version sits at byte offset 4.
        const char le[4] = {version, 0, 0, 0};
        std::copy(le, le + 4, bytes.begin() + 4);
        {
            std::ofstream out(blob, std::ios::binary | std::ios::trunc);
            out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        }
        cad::ArtifactStore reader(cad::ArtifactStoreConfig{0, dir.str()});
        EXPECT_EQ(reader.get<cad::Placement>(21), nullptr) << "v" << int{version};
        const auto st = reader.stats();
        EXPECT_EQ(st.disk_bad_blobs, 1u) << "v" << int{version};
        EXPECT_EQ(st.disk_hits, 0u) << "v" << int{version};
        EXPECT_EQ(st.misses, 1u) << "v" << int{version};
    }
}

TEST(ArtifactStore, TwoStoresShareOneCacheDirectory) {
    ScratchDir dir;
    cad::ArtifactStore a(cad::ArtifactStoreConfig{0, dir.str()});
    cad::ArtifactStore b(cad::ArtifactStoreConfig{0, dir.str()});
    constexpr std::uint64_t kKeys = 24;

    // Two stores (stand-ins for two processes) publish disjoint halves of a
    // keyspace into one directory, concurrently with cross-reads. Temp-file
    // + rename means a reader sees a complete blob or nothing — never a
    // torn one.
    std::thread ta([&] {
        for (std::uint64_t k = 1; k <= kKeys; k += 2) {
            a.put(k, make_placement(static_cast<double>(k)));
            if (auto p = a.get<cad::Placement>(k + 1)) {
                EXPECT_EQ(p->final_cost, static_cast<double>(k + 1));
            }
        }
    });
    std::thread tb([&] {
        for (std::uint64_t k = 2; k <= kKeys; k += 2) {
            b.put(k, make_placement(static_cast<double>(k)));
            if (auto p = b.get<cad::Placement>(k - 1)) {
                EXPECT_EQ(p->final_cost, static_cast<double>(k - 1));
            }
        }
    });
    ta.join();
    tb.join();

    // After the dust settles every key is readable from BOTH stores.
    for (std::uint64_t k = 1; k <= kKeys; ++k) {
        const auto pa = a.get<cad::Placement>(k);
        const auto pb = b.get<cad::Placement>(k);
        ASSERT_NE(pa, nullptr) << "key " << k;
        ASSERT_NE(pb, nullptr) << "key " << k;
        EXPECT_EQ(pa->final_cost, static_cast<double>(k));
        EXPECT_EQ(pb->final_cost, static_cast<double>(k));
    }
    EXPECT_EQ(a.stats().disk_bad_blobs, 0u);
    EXPECT_EQ(b.stats().disk_bad_blobs, 0u);
}

// ---------------------------------------------------------------------------
// Disk tier GC
// ---------------------------------------------------------------------------

/// Pretend a file was written `age` ago.
void backdate(const fs::path& p, std::chrono::seconds age) {
    fs::last_write_time(p, fs::file_time_type::clock::now() - age);
}

/// The blob files currently in `dir` (excludes temp files).
std::set<std::string> blob_names(const fs::path& dir) {
    std::set<std::string> names;
    for (const auto& e : fs::directory_iterator(dir)) {
        const std::string n = e.path().filename().string();
        if (n.find(".tmp.") == std::string::npos) names.insert(n);
    }
    return names;
}

TEST(ArtifactStore, DiskGcAgePrunesOldBlobsOnly) {
    ScratchDir dir;
    {
        cad::ArtifactStore writer(cad::ArtifactStoreConfig{0, dir.str()});
        writer.put(1, make_placement(1.0));
        writer.put(2, make_placement(2.0));
        writer.put(3, make_placement(3.0));
    }
    backdate(dir.path() / cad::key_hex(1), std::chrono::hours(48));
    backdate(dir.path() / cad::key_hex(2), std::chrono::hours(48));

    // configure() with an age limit runs the prune at startup — the
    // FlowService path.
    cad::ArtifactStore store;
    store.configure(cad::ArtifactStoreConfig{0, dir.str(), 0, /*max age s=*/3600});
    EXPECT_EQ(store.stats().disk_pruned, 2u);
    EXPECT_EQ(blob_names(dir.path()), std::set<std::string>{cad::key_hex(3)});
    EXPECT_EQ(store.get<cad::Placement>(1), nullptr);
    ASSERT_NE(store.get<cad::Placement>(3), nullptr);
}

TEST(ArtifactStore, DiskGcBudgetEvictsOldestFirst) {
    ScratchDir dir;
    {
        cad::ArtifactStore writer(cad::ArtifactStoreConfig{0, dir.str()});
        for (std::uint64_t k = 1; k <= 4; ++k) writer.put(k, make_placement(1.0, 64));
    }
    std::uintmax_t blob_bytes = 0;
    for (std::uint64_t k = 1; k <= 4; ++k) {
        blob_bytes = fs::file_size(dir.path() / cad::key_hex(k));
        // Distinct mtimes, oldest = key 1; key 4 newest.
        backdate(dir.path() / cad::key_hex(k), std::chrono::hours(5 - k));
    }

    // Budget holds exactly two blobs: the two oldest must go.
    cad::ArtifactStore store(
        cad::ArtifactStoreConfig{0, dir.str(), std::size_t{2 * blob_bytes}, 0});
    EXPECT_EQ(store.stats().disk_pruned, 2u);
    const std::set<std::string> want{cad::key_hex(3), cad::key_hex(4)};
    EXPECT_EQ(blob_names(dir.path()), want);
}

TEST(ArtifactStore, DiskGcSweepsStaleTempFilesKeepsFreshOnes) {
    ScratchDir dir;
    cad::ArtifactStore writer(cad::ArtifactStoreConfig{0, dir.str()});
    writer.put(7, make_placement(7.0));

    // A writer that died mid-publish long ago vs one that could still be
    // mid-rename right now.
    const fs::path stale = dir.path() / (cad::key_hex(99) + ".tmp.1234");
    const fs::path fresh = dir.path() / (cad::key_hex(98) + ".tmp.5678");
    std::ofstream(stale) << "half-written";
    std::ofstream(fresh) << "half-written";
    backdate(stale, std::chrono::hours(2));

    writer.prune_disk();  // callable directly, not only via configure()
    EXPECT_FALSE(fs::exists(stale));
    EXPECT_TRUE(fs::exists(fresh));
    EXPECT_TRUE(fs::exists(dir.path() / cad::key_hex(7)));
    // Temp-file sweeping is hygiene, not blob eviction: the counter only
    // tracks pruned blobs.
    EXPECT_EQ(writer.stats().disk_pruned, 0u);
}

TEST(ArtifactStore, DiskGcNoLimitsNoDiskIsANoOp) {
    ScratchDir dir;
    {
        cad::ArtifactStore writer(cad::ArtifactStoreConfig{0, dir.str()});
        writer.put(5, make_placement(5.0));
        backdate(dir.path() / cad::key_hex(5), std::chrono::hours(100));
        writer.prune_disk();  // no budget, no age limit -> nothing to enforce
        EXPECT_TRUE(fs::exists(dir.path() / cad::key_hex(5)));
        EXPECT_EQ(writer.stats().disk_pruned, 0u);
    }
    cad::ArtifactStore memory_only;
    memory_only.prune_disk();  // no disk tier at all
    EXPECT_EQ(memory_only.stats().disk_pruned, 0u);
}

// ---------------------------------------------------------------------------
// RR memo: failure handling + statistics
// ---------------------------------------------------------------------------

TEST(ArtifactStore, RrMemoCountsHitsAndMisses) {
    cad::ArtifactStore store;
    core::ArchSpec a;
    core::ArchSpec b;
    b.channel_width = a.channel_width + 2;
    (void)store.rr_for(a);
    (void)store.rr_for(a);
    (void)store.rr_for(b);
    const auto st = store.stats();
    EXPECT_EQ(st.rr_misses, 2u);  // one build per architecture
    EXPECT_EQ(st.rr_hits, 1u);    // the repeat
    // RR lookups must not leak into the artifact-tier counters.
    EXPECT_EQ(st.hits, 0u);
    EXPECT_EQ(st.misses, 0u);
}

// Regression: a failed RR build used to leave its errored future visible —
// has_rr() said true (so flows skipped creating the build pool they would
// need) and callers in the set_exception..erase window inherited the cached
// error instead of retrying.
TEST(ArtifactStore, RrForFailedBuildIsRetriableAndInvisible) {
    cad::ArtifactStore store;
    core::ArchSpec bad;
    bad.channel_width = 0;  // RRGraph validates the arch and throws

    EXPECT_THROW((void)store.rr_for(bad), base::Error);
    EXPECT_FALSE(store.has_rr(bad)) << "a failed build must not look memoized";
    EXPECT_EQ(store.num_rr_graphs(), 0u);
    // Every retry reproduces the failure freshly (no poisoned memo)...
    EXPECT_THROW((void)store.rr_for(bad), base::Error);
    // ...and an unrelated architecture is unaffected.
    EXPECT_NE(store.rr_for(core::ArchSpec{}), nullptr);
}

// Regression for the failure window itself: a caller already waiting on a
// build that fails must RETRY (and possibly become the next builder), not
// adopt the error. Old code published the exception before erasing the
// memo entry, handing waiters (and new arrivals in the window) the cached
// error; this choreography fails there and passes now.
TEST(ArtifactStore, RrForFailureWindowWaiterRetries) {
    cad::ArtifactStore store;
    const core::ArchSpec arch;
    const std::uint64_t fp = cad::fingerprint_arch(arch);  // the key rr_for uses

    std::atomic<int> calls{0};
    std::promise<void> t1_building_p;
    std::promise<void> t2_started_p;
    std::shared_future<void> t2_started = t2_started_p.get_future().share();
    const auto builder = [&]() -> std::shared_ptr<const core::RRGraph> {
        if (calls.fetch_add(1) == 0) {
            // Hold the first build open until T2 is (almost surely) parked
            // on the memo future, then fail.
            t1_building_p.set_value();
            t2_started.wait();
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            base::fail("injected RR build failure");
        }
        return std::make_shared<core::RRGraph>(arch);
    };

    std::thread t1([&] { EXPECT_THROW((void)store.rr_for_keyed(fp, builder), base::Error); });
    t1_building_p.get_future().wait();  // T1 owns the first (failing) build
    std::shared_ptr<const core::RRGraph> got;
    std::thread t2([&] {
        t2_started_p.set_value();
        got = store.rr_for_keyed(fp, builder);
    });
    t1.join();
    t2.join();

    ASSERT_NE(got, nullptr) << "waiter adopted the builder's error instead of retrying";
    EXPECT_EQ(calls.load(), 2);
    EXPECT_TRUE(store.has_rr(arch));
}

TEST(ArtifactStore, RrMemoSharesPerArchitecture) {
    cad::ArtifactStore store;
    core::ArchSpec a;
    core::ArchSpec b;
    b.channel_width = a.channel_width + 2;

    const auto rra1 = store.rr_for(a);
    const auto rra2 = store.rr_for(a);
    const auto rrb = store.rr_for(b);
    EXPECT_EQ(rra1.get(), rra2.get());  // one graph per architecture
    EXPECT_NE(rra1.get(), rrb.get());
    EXPECT_EQ(rra1->arch().fingerprint(), a.fingerprint());
    EXPECT_EQ(store.num_rr_graphs(), 2u);
}

// Regression: the store's RR memo, the pack-stage key and the prebuilt_rr
// check all used ArchSpec::fingerprint, which hashes Fc as uint64(fc*1000).
// fc_in 0.5312 and 0.5313 hash equal there, yet on 16 tracks an input pin
// taps lround(8.4992) = 8 tracks in one and lround(8.5008) = 9 in the other,
// so one store handed the second architecture the first one's graph (and
// every product built on it).
TEST(ArchKey, SubMilliFcStepIsADifferentArchitecture) {
    core::ArchSpec a;
    a.channel_width = 16;
    a.fc_in = 0.5312;
    core::ArchSpec b = a;
    b.fc_in = 0.5313;
    EXPECT_NE(cad::fingerprint_arch(a), cad::fingerprint_arch(b));

    cad::ArtifactStore store;
    const auto rra = store.rr_for(a);
    const auto rrb = store.rr_for(b);
    ASSERT_NE(rra.get(), rrb.get()) << "one store served both archs one graph";
    EXPECT_NE(rra->num_edges(), rrb->num_edges());
    EXPECT_EQ(rrb->arch().fc_in, b.fc_in);
    EXPECT_EQ(store.num_rr_graphs(), 2u);

    const auto adder = asynclib::make_qdi_adder(2);
    cad::FlowOptions prebuilt;
    prebuilt.prebuilt_rr = rrb;
    try {
        (void)cad::run_flow(adder.nl, adder.hints, a, prebuilt);
        ADD_FAILURE() << "prebuilt_rr for the other architecture was accepted";
    } catch (const base::Error& e) {
        EXPECT_NE(std::string(e.what()).find("prebuilt_rr"), std::string::npos) << e.what();
    }

    cad::FlowOptions o;
    o.artifact_store = std::make_shared<cad::ArtifactStore>();
    const auto fa = cad::run_flow(adder.nl, adder.hints, a, o);
    const auto fb = cad::run_flow(adder.nl, adder.hints, b, o);
    EXPECT_NE(fa.telemetry.stage("pack")->cache_key, fb.telemetry.stage("pack")->cache_key);
    EXPECT_EQ(fb.telemetry.stage("pack")->cache_hit, 0);
    EXPECT_EQ(fb.rr->arch().fc_in, b.fc_in);
}

// ---------------------------------------------------------------------------
// Restores and blob decoders
// ---------------------------------------------------------------------------

// A restored stage reports what the run that published it reported: the
// same iterations and cost trajectory, and every metric it emits at the
// cold run's value. Wall times (`*_ms`) and the disk-tier marker are the
// only exceptions. Checked from the memory tier and, through a fresh store
// on the same directory, from the disk tier.
TEST(FlowRestore, ReportsWhatTheRunReported) {
    ScratchDir dir;
    const auto qdi = asynclib::make_qdi_adder(2);
    const auto mp = asynclib::make_micropipeline_adder(2);
    const asynclib::MappingHints no_hints;
    struct Design {
        std::string name;
        const netlist::Netlist& nl;
        const asynclib::MappingHints& hints;
    };
    for (const Design& d : {Design{"qdi_adder2", qdi.nl, qdi.hints},
                            Design{"mp_adder2", mp.nl, no_hints}}) {
        const cad::ArtifactStoreConfig cfg{0, (dir.path() / d.name).string(), 0, 0};
        cad::FlowOptions o;
        o.artifact_store = std::make_shared<cad::ArtifactStore>(cfg);
        const auto cold = cad::run_flow(d.nl, d.hints, core::ArchSpec{}, o);
        const auto memory = cad::run_flow(d.nl, d.hints, core::ArchSpec{}, o);
        o.artifact_store = std::make_shared<cad::ArtifactStore>(cfg);
        const auto disk = cad::run_flow(d.nl, d.hints, core::ArchSpec{}, o);
        EXPECT_EQ(*memory.bits, *cold.bits) << d.name;
        EXPECT_EQ(*disk.bits, *cold.bits) << d.name;

        for (const auto* warm : {&memory, &disk}) {
            const bool from_disk = warm == &disk;
            ASSERT_EQ(warm->telemetry.stages.size(), cold.telemetry.stages.size());
            for (std::size_t i = 0; i < cold.telemetry.stages.size(); ++i) {
                const cad::StageReport& c = cold.telemetry.stages[i];
                const cad::StageReport& w = warm->telemetry.stages[i];
                const std::string where =
                    d.name + "/" + c.stage + (from_disk ? " (disk)" : " (memory)");
                EXPECT_EQ(c.cache_hit, 0) << where;
                EXPECT_EQ(w.cache_hit, 1) << where;
                EXPECT_EQ(w.metric("restored_from_disk") != nullptr, from_disk) << where;
                EXPECT_EQ(w.iterations, c.iterations) << where;
                EXPECT_EQ(w.cost_trajectory, c.cost_trajectory) << where;
                if (c.stage == "place")
                    for (const char* wall : {"global_ms", "polish_ms", "descent_ms"}) {
                        EXPECT_NE(c.metric(wall), nullptr) << where << ": " << wall;
                        EXPECT_EQ(w.metric(wall), nullptr) << where << ": " << wall;
                    }
                if (c.stage == "route")
                    for (const char* run_only :
                         {"kernel_allocations", "kernel_steady_allocations"}) {
                        EXPECT_NE(c.metric(run_only), nullptr) << where << ": " << run_only;
                        EXPECT_EQ(w.metric(run_only), nullptr) << where << ": " << run_only;
                    }
                for (const auto& [name, v] : w.metrics) {
                    if (name == "restored_from_disk" || name.ends_with("_ms")) continue;
                    const double* cv = c.metric(name);
                    ASSERT_NE(cv, nullptr) << where << ": '" << name << "' only on restore";
                    EXPECT_EQ(v, *cv) << where << ": " << name;
                }
            }
        }
    }
}

/// Feed one product's decoder every single-byte mutation of a real blob
/// (set to 0x00, set to 0xFF, XOR 0x01), every 8-byte window set to 0xFF
/// (a u64 count or size at its maximum) and every truncation. Each case
/// must throw base::Error or decode faithfully, to a value that re-encodes
/// to exactly the mutated bytes: anything else (another exception, a crash,
/// a sanitizer report, two blobs for one value) is a decoder bug.
template <typename T>
void expect_decoder_survives_mutation(const std::vector<std::uint8_t>& blob,
                                      const std::string& what) {
    using Codec = cad::ArtifactCodec<T>;
    ASSERT_NO_THROW((void)Codec::decode_blob(blob)) << what;
    auto attempt = [&](const std::vector<std::uint8_t>& bytes, const char* how,
                       std::size_t off) {
        try {
            EXPECT_EQ(Codec::encode_blob(Codec::decode_blob(bytes)), bytes)
                << what << ": " << how << " at byte " << off << " decoded unfaithfully";
        } catch (const base::Error&) {
            // rejected cleanly
        } catch (const std::exception& e) {
            ADD_FAILURE() << what << ": " << how << " at byte " << off << " of "
                          << blob.size() << " threw a non-base::Error: " << e.what();
        }
    };
    std::vector<std::uint8_t> mut = blob;
    for (std::size_t off = 0; off < blob.size(); ++off) {
        const std::uint8_t orig = blob[off];
        mut[off] = 0x00;
        attempt(mut, "set 0x00", off);
        mut[off] = 0xFF;
        attempt(mut, "set 0xFF", off);
        mut[off] = orig ^ 0x01;
        attempt(mut, "xor 0x01", off);
        mut[off] = orig;
        if (off + 8 <= blob.size()) {
            std::vector<std::uint8_t> wide = blob;
            std::fill_n(wide.begin() + static_cast<std::ptrdiff_t>(off), 8, std::uint8_t{0xFF});
            attempt(wide, "u64 window 0xFF", off);
        }
        attempt(std::vector<std::uint8_t>(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(off)),
                "truncation", off);
    }
}

/// The blob the flow published for `stage` into `store`.
template <typename T>
std::vector<std::uint8_t> published_blob(const cad::ArtifactStore& store,
                                         const cad::FlowResult& fr, const char* stage) {
    const cad::StageReport* s = fr.telemetry.stage(stage);
    EXPECT_NE(s, nullptr) << stage;
    const auto product = store.get<T>(std::stoull(s->cache_key, nullptr, 16));
    EXPECT_NE(product, nullptr) << stage;
    return product ? cad::ArtifactCodec<T>::encode_blob(*product) : std::vector<std::uint8_t>{};
}

TEST(ArtifactCodecMutation, EveryProductDecoderRejectsCleanly) {
    // The smallest real products: a 1-bit QDI adder on a 3x3 fabric.
    const auto adder = asynclib::make_qdi_adder(1);
    core::ArchSpec arch;
    arch.width = 3;
    arch.height = 3;
    arch.channel_width = 8;
    auto store = std::make_shared<cad::ArtifactStore>();
    cad::FlowOptions o;
    o.artifact_store = store;
    const auto fr = cad::run_flow(adder.nl, adder.hints, arch, o);
    expect_decoder_survives_mutation<cad::MappedDesign>(
        published_blob<cad::MappedDesign>(*store, fr, "techmap"), "techmap");
    expect_decoder_survives_mutation<cad::PackedDesign>(
        published_blob<cad::PackedDesign>(*store, fr, "pack"), "pack");
    expect_decoder_survives_mutation<cad::Placement>(
        published_blob<cad::Placement>(*store, fr, "place"), "place");
    expect_decoder_survives_mutation<cad::RouteArtifact>(
        published_blob<cad::RouteArtifact>(*store, fr, "route"), "route");
    expect_decoder_survives_mutation<cad::BitstreamArtifact>(
        published_blob<cad::BitstreamArtifact>(*store, fr, "bitstream"), "bitstream");
}

TEST(ArtifactCodec, TwoRunsOfOneDesignEncodeIdenticalBlobs) {
    // A blob is stored under a content key, so two runs of one job must
    // encode the same bytes: wall times, which differ run to run, stay out.
    const auto adder = asynclib::make_qdi_adder(2);
    auto blobs_of_a_run = [&] {
        auto store = std::make_shared<cad::ArtifactStore>();
        cad::FlowOptions o;
        o.artifact_store = store;
        const auto fr = cad::run_flow(adder.nl, adder.hints, core::ArchSpec{}, o);
        return std::pair{published_blob<cad::Placement>(*store, fr, "place"),
                         published_blob<cad::RouteArtifact>(*store, fr, "route")};
    };
    const auto first = blobs_of_a_run();
    const auto second = blobs_of_a_run();
    EXPECT_EQ(first.first, second.first) << "place";
    EXPECT_EQ(first.second, second.second) << "route";
}

TEST(ArtifactCodec, PooledRouteRunsEncodeOneBlob) {
    // The route key ignores `threads`, so the blob of a pooled routing must
    // not depend on the schedule either: how many scratches a pool creates
    // (and so the allocation counts) does, and stays out.
    const auto fifo = asynclib::make_wchb_fifo(8, 24);
    core::ArchSpec arch;
    arch.width = 12;
    arch.height = 12;
    cad::FlowOptions o;
    o.route.threads = 2;
    std::vector<std::uint8_t> first;
    for (int run = 0; run < 8; ++run) {
        const auto fr = cad::run_flow(fifo.nl, fifo.hints, arch, o);
        cad::RouteArtifact art;
        art.routing = fr.routing;
        const auto blob = cad::ArtifactCodec<cad::RouteArtifact>::encode_blob(art);
        if (run == 0)
            first = blob;
        else
            EXPECT_EQ(blob, first) << "run " << run;
    }
}

}  // namespace
