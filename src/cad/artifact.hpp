/// \file
/// Content-addressed storage for CAD stage products.
///
/// The ArtifactStore maps ArtifactKeys (cad/fingerprint.hpp) to immutable
/// stage products: a techmap's MappedDesign, a pack's PackedDesign, a
/// placement, a routed net list, a programmed bitstream. A flow consults
/// the store before running each stage (cad/flow.cpp) and publishes after,
/// so a sweep that re-runs a design with only downstream knobs changed
/// skips every unchanged upstream stage. The store also memoizes one
/// RRGraph per architecture — the single biggest shared allocation of a
/// multi-job grid.
///
/// The store is a two-tier cache:
///  - an in-memory tier capped by a byte budget (per-artifact cost from
///    ArtifactCodec<T>::approx_bytes) with least-recently-used eviction.
///    Eviction only drops the store's reference: outstanding
///    std::shared_ptr readers and in-flight computes are never
///    invalidated, and an evicted product can come back from disk.
///  - an optional on-disk tier of content-addressed blobs
///    (<disk_dir>/<key_hex>, format in cad/serialize.hpp) that survives
///    process restarts. Blobs carry a format version and checksum, so a
///    corrupt, truncated or stale blob degrades to a cache miss — never a
///    crash. Writes go to a temp file and are renamed into place, so
///    concurrent FlowService processes can share one cache directory.
///
/// Ownership/threading contract: entries are std::shared_ptr<const T>;
/// once published an artifact is immutable and may be read by any number
/// of concurrent flows (a cache hit copies the product into the flow's own
/// FlowResult). All store operations are internally synchronized — except
/// configure(), which must happen-before concurrent use. Two jobs racing
/// to publish the same key is benign because equal keys imply
/// bit-identical products (stages are pure functions of their keys). The
/// RR cache hands racing builders of the *same* architecture one
/// shared_future, so a graph is built exactly once per store.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cad/fingerprint.hpp"
#include "cad/mapped.hpp"
#include "cad/pack.hpp"
#include "cad/place.hpp"
#include "cad/route.hpp"
#include "core/bitstream.hpp"
#include "core/rrgraph.hpp"

namespace afpga::base {
class ThreadPool;
}

namespace afpga::cad {

/// Per-product serialization + footprint trait, specialized in
/// cad/serialize.hpp for every cacheable stage product. Translation units
/// that call ArtifactStore::get/put must include that header.
template <typename T>
struct ArtifactCodec;

/// The route stage's cacheable product: the routing itself plus the
/// flattened request list the bitstream stage programs from.
struct RouteArtifact {
    RoutingResult routing;                   ///< routed trees + telemetry counters
    std::vector<RouteRequest> reqs;          ///< flattened per-signal requests
    /// Per request, the consuming cluster of each sink (SIZE_MAX = pad sink).
    std::vector<std::vector<std::size_t>> sink_cluster;
    std::vector<netlist::NetId> req_signal;  ///< the signal each request carries
};

/// The bitstream stage's cacheable product.
struct BitstreamArtifact {
    /// The programmed configuration (by default a blank one for the default
    /// fabric, which the blob decoder replaces).
    core::Bitstream bits{core::ArchSpec{}, 0};
    /// Pad index -> primary-I/O name, for simulation and reports.
    std::unordered_map<std::uint32_t, std::string> pad_names;
};

/// Which tier satisfied a get().
enum class ArtifactTier : std::uint8_t {
    Memory,  ///< resident entry
    Disk,    ///< restored from a disk blob (and re-admitted to memory)
};

/// Cache-tier configuration (see the file comment).
struct ArtifactStoreConfig {
    /// In-memory tier byte budget (sum of resident approx_bytes); 0 =
    /// unbounded. The budget is a hard cap: after every admission the
    /// least-recently-used entries are evicted until the tier fits, even
    /// when that evicts the entry just admitted (callers keep their
    /// shared_ptr, and the disk tier keeps the bytes).
    std::size_t memory_budget_bytes = 0;
    /// Directory of the on-disk tier (created on configure, parents
    /// included); empty = disk tier disabled. Safe to share between
    /// concurrent stores and processes on one host.
    std::string disk_dir;
    /// Disk-tier byte budget, enforced by prune_disk() (run automatically
    /// on configure, i.e. at FlowService startup): oldest blobs by
    /// modification time are deleted until the directory fits. 0 =
    /// unbounded.
    std::size_t disk_budget_bytes = 0;
    /// Maximum blob age in seconds for prune_disk(); older blobs are
    /// deleted regardless of the byte budget. 0 = no age limit.
    std::uint64_t disk_max_age_seconds = 0;
};

/// Monotonic counters + current occupancy (schema: docs/TELEMETRY.md).
struct ArtifactStoreStats {
    std::uint64_t hits = 0;            ///< get() served by the memory tier
    std::uint64_t disk_hits = 0;       ///< get() served by the disk tier
    std::uint64_t misses = 0;          ///< get() served by neither
    std::uint64_t evictions = 0;       ///< entries evicted by the byte budget
    std::uint64_t collisions = 0;      ///< cross-type key collisions replaced on put()
    std::uint64_t disk_writes = 0;     ///< blobs durably written (renamed into place)
    std::uint64_t disk_write_failures = 0;  ///< failed blob writes (best-effort, non-fatal)
    std::uint64_t disk_bad_blobs = 0;  ///< corrupt/stale/truncated blobs read as misses
    std::uint64_t disk_pruned = 0;     ///< blobs deleted by disk-tier GC (prune_disk)
    std::uint64_t rr_hits = 0;         ///< rr_for served by the per-arch memo
    std::uint64_t rr_misses = 0;       ///< rr_for that had to build the graph
    std::size_t resident_bytes = 0;    ///< memory-tier footprint (approx_bytes sum)
    std::size_t num_artifacts = 0;     ///< memory-tier entry count
    std::size_t num_rr_graphs = 0;     ///< architectures with a memoized RR graph
    std::size_t memory_budget_bytes = 0;  ///< configured budget (0 = unbounded)
};

/// Thread-safe two-tier content-addressed artifact cache; see the file
/// comment for the ownership contract.
class ArtifactStore {
public:
    /// Version stamped into every disk-blob header. Bump when any field
    /// list in cad/serialize changes shape, or when an unchanged options
    /// fingerprint starts naming a different product (v5: `Race` dropped
    /// its flat analytical replica; v6: `route.threads = 0` routes with the
    /// partitioned PathFinder; v7: the Placement blob lost its replica and
    /// engine fields; v8: the B2B assembly sums duplicate triplets in
    /// assembly order, which moves some placements; v9: the Placement and
    /// RouteArtifact blobs lost their wall times; v10: the RouteArtifact blob
    /// lost its schedule-dependent allocation counts, and the router's
    /// lookahead moved its routings); older blobs then read as misses.
    static constexpr std::uint32_t kDiskFormatVersion = 10;

    /// An unbounded, memory-only store.
    ArtifactStore() = default;
    /// A store with the given tier configuration.
    explicit ArtifactStore(ArtifactStoreConfig cfg) { configure(std::move(cfg)); }
    ArtifactStore(const ArtifactStore&) = delete;             ///< non-copyable
    ArtifactStore& operator=(const ArtifactStore&) = delete;  ///< non-copyable

    /// (Re)configure the tiers. Creates the disk directory; throws
    /// base::Error when it cannot be created. A shrunk byte budget evicts
    /// immediately. Not synchronized against concurrent store use — call it
    /// before the store is shared.
    void configure(ArtifactStoreConfig cfg);

    /// The artifact published under `key`, or nullptr (counted as a miss).
    /// Misses in memory fall through to the disk tier (when configured);
    /// a restored product is re-admitted to the memory tier. `tier` (when
    /// non-null) receives which tier served a non-null result. A type
    /// mismatch (possible only on a 64-bit key collision between stages,
    /// which chain their stage name into the key) is also a miss.
    template <typename T>
    [[nodiscard]] std::shared_ptr<const T> get(ArtifactKey key, ArtifactTier* tier = nullptr) const {
        {
            std::lock_guard<std::mutex> lock(mu_);
            const auto it = map_.find(key);
            if (it != map_.end()) {
                if (const auto* p = std::any_cast<std::shared_ptr<const T>>(&it->second.value)) {
                    ++hits_;
                    it->second.last_use = ++lru_clock_;
                    if (tier) *tier = ArtifactTier::Memory;
                    return *p;
                }
                // A differently-typed resident entry (key collision): fall
                // through to the disk tier, whose header names the blob's
                // type and rejects cross-type reads itself.
            }
            if (disk_dir_.empty()) {
                ++misses_;
                return nullptr;
            }
        }
        // The disk probe runs unlocked: blob I/O and decoding must not
        // serialize concurrent flows. Racing restores of one key are
        // benign (equal keys imply equal content).
        std::shared_ptr<const T> restored;
        if (const auto payload = disk_read(key, ArtifactCodec<T>::kTypeId)) {
            try {
                restored = std::make_shared<const T>(ArtifactCodec<T>::decode_blob(*payload));
            } catch (...) {
                count_bad_blob();  // undecodable payload degrades to a miss
            }
        }
        std::lock_guard<std::mutex> lock(mu_);
        if (!restored) {
            ++misses_;
            return nullptr;
        }
        ++disk_hits_;
        if (tier) *tier = ArtifactTier::Disk;
        if (map_.find(key) == map_.end())
            insert_locked(key, std::any(restored), ArtifactCodec<T>::approx_bytes(*restored));
        return restored;
    }

    /// Publish an artifact to both tiers. First writer wins for a same-type
    /// duplicate (equal keys imply equal content); a differently-typed
    /// entry under the key is a 64-bit key collision and is REPLACED —
    /// keeping it would wedge the key for the new type (every get() a
    /// miss, every recomputed put() dropped) — and counted in
    /// `collisions`. Disk-tier writes are best-effort: failures are
    /// counted, never thrown.
    template <typename T>
    void put(ArtifactKey key, std::shared_ptr<const T> value) {
        const std::size_t bytes = ArtifactCodec<T>::approx_bytes(*value);
        bool to_disk = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            const auto it = map_.find(key);
            if (it != map_.end()) {
                if (std::any_cast<std::shared_ptr<const T>>(&it->second.value)) return;
                ++collisions_;
                resident_bytes_ -= it->second.bytes;
                map_.erase(it);
            }
            insert_locked(key, std::any(value), bytes);
            to_disk = !disk_dir_.empty();
        }
        if (to_disk) {
            try {
                disk_write(key, ArtifactCodec<T>::kTypeId, ArtifactCodec<T>::encode_blob(*value));
            } catch (...) {
                count_disk_write_failure();  // encoding failed; stay memory-only
            }
        }
    }

    /// In-flight deduplication, so a concurrently submitted cold grid
    /// computes each shared stage once instead of once per worker: true
    /// means the caller owns the computation of `key` (it MUST call
    /// finish_compute afterwards, on success or failure); false means the
    /// key got published while we waited for another computer — re-get it.
    /// If a computer fails without publishing, one blocked waiter inherits
    /// ownership (true) and reproduces the failure for its own job.
    /// (A tiny budget can evict the fresh product before a waiter re-gets
    /// it; the waiter then claims the key and recomputes — slower, still
    /// correct.)
    [[nodiscard]] bool begin_compute(ArtifactKey key);
    /// Release the computation claim on `key` and wake its waiters.
    void finish_compute(ArtifactKey key);

    /// Drop every resident artifact and memoized RR graph. The disk tier
    /// is untouched: cleared products restore from their blobs on the next
    /// get(). In-flight computations are unaffected: their results publish
    /// into the emptied store. Counters keep counting across clears.
    void clear();

    /// Disk-tier GC: delete stale temp files, every blob older than
    /// `disk_max_age_seconds`, then (oldest modification time first, ties
    /// by filename) enough blobs to bring the directory under
    /// `disk_budget_bytes`. Runs automatically on configure() when either
    /// limit is set; exposed for tests and periodic maintenance. Deleting
    /// a blob another process is reading is safe (POSIX unlink semantics),
    /// and a pruned product simply recomputes on its next miss. Counts
    /// deleted blobs in `disk_pruned`; I/O errors are swallowed (best
    /// effort, like all disk-tier operations). No-op without a disk tier.
    void prune_disk();

    /// The routing-resource graph for `arch`, built on first request and
    /// shared by every subsequent caller (keyed by fingerprint_arch).
    /// Racing callers for one architecture block on a single build; `pool`
    /// (when non-null) parallelizes that build. A failed build never
    /// poisons the memo: the failing builder's own caller sees the
    /// exception, every other caller (concurrent or later) retries with a
    /// fresh build. Marked const because it is a cache: the returned graph
    /// is immutable either way.
    [[nodiscard]] std::shared_ptr<const core::RRGraph> rr_for(const core::ArchSpec& arch,
                                                              base::ThreadPool* pool = nullptr) const;
    /// rr_for generalized over the build function — the seam the RR memo's
    /// failure-handling tests use. `fp` keys the memo; `build` runs outside
    /// the memo lock and may throw (see rr_for for the failure contract).
    [[nodiscard]] std::shared_ptr<const core::RRGraph> rr_for_keyed(
        std::uint64_t fp,
        const std::function<std::shared_ptr<const core::RRGraph>()>& build) const;
    /// True when `arch`'s graph is memoized or being built right now —
    /// never for a failed build (its memo entry is erased before the error
    /// publishes). Lets callers skip creating a build pool they would not
    /// use; a stale answer only costs an idle pool (or one serial build),
    /// never correctness.
    [[nodiscard]] bool has_rr(const core::ArchSpec& arch) const;

    // --- statistics (telemetry) ---------------------------------------------
    /// Every counter plus current occupancy, one consistent snapshot.
    [[nodiscard]] ArtifactStoreStats stats() const;
    /// get() calls served by the memory tier.
    [[nodiscard]] std::uint64_t hits() const noexcept;
    /// get() calls served by neither tier.
    [[nodiscard]] std::uint64_t misses() const noexcept;
    /// Artifacts currently resident in the memory tier.
    [[nodiscard]] std::size_t num_artifacts() const noexcept;
    /// Architectures with a memoized RR graph.
    [[nodiscard]] std::size_t num_rr_graphs() const noexcept;

private:
    /// One memory-tier entry.
    struct Entry {
        std::any value;            ///< std::shared_ptr<const T>
        std::size_t bytes = 0;     ///< approx_bytes at admission
        std::uint64_t last_use = 0;  ///< lru_clock_ stamp of the last touch
    };

    /// Admit an entry, stamp its recency, and enforce the byte budget.
    void insert_locked(ArtifactKey key, std::any value, std::size_t bytes) const;
    /// Evict least-recently-used entries until resident_bytes_ fits.
    void evict_locked() const;
    /// Read + validate the blob for `key`; nullopt is a miss (no file,
    /// wrong type, or — counted — a corrupt/stale blob).
    [[nodiscard]] std::optional<std::vector<std::uint8_t>> disk_read(ArtifactKey key,
                                                                     std::uint32_t type_id) const;
    /// Write a blob via temp-file + rename; never throws, counts outcomes.
    void disk_write(ArtifactKey key, std::uint32_t type_id,
                    const std::vector<std::uint8_t>& payload) const;
    [[nodiscard]] std::string blob_path(ArtifactKey key) const;
    void count_bad_blob() const;
    void count_disk_write_failure() const;

    mutable std::mutex mu_;
    /// Mutable: get() admits disk restores and refreshes recency stamps —
    /// cache bookkeeping, not observable artifact state.
    mutable std::unordered_map<ArtifactKey, Entry> map_;
    std::size_t memory_budget_bytes_ = 0;
    std::string disk_dir_;
    std::size_t disk_budget_bytes_ = 0;
    std::uint64_t disk_max_age_seconds_ = 0;
    mutable std::size_t resident_bytes_ = 0;
    mutable std::uint64_t lru_clock_ = 0;
    mutable std::uint64_t hits_ = 0;
    mutable std::uint64_t disk_hits_ = 0;
    mutable std::uint64_t misses_ = 0;
    mutable std::uint64_t evictions_ = 0;
    mutable std::uint64_t collisions_ = 0;
    mutable std::uint64_t disk_writes_ = 0;
    mutable std::uint64_t disk_write_failures_ = 0;
    mutable std::uint64_t disk_bad_blobs_ = 0;
    mutable std::uint64_t disk_pruned_ = 0;

    /// One entry per key currently being computed (begin_compute /
    /// finish_compute); waiters block on the future outside the lock.
    struct Inflight {
        std::shared_ptr<std::promise<void>> done;
        std::shared_future<void> wait;
    };
    std::unordered_map<ArtifactKey, Inflight> inflight_;

    // RR memo: a future per architecture so concurrent first requests build
    // once and everyone else waits for that build instead of duplicating it.
    mutable std::mutex rr_mu_;
    mutable std::unordered_map<std::uint64_t,
                               std::shared_future<std::shared_ptr<const core::RRGraph>>>
        rr_;
    mutable std::uint64_t rr_hits_ = 0;
    mutable std::uint64_t rr_misses_ = 0;
};

}  // namespace afpga::cad
