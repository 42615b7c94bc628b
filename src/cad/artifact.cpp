#include "cad/artifact.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "base/check.hpp"
#include "base/threadpool.hpp"

namespace afpga::cad {

namespace {

// Disk-blob header, written little-endian field by field (40 bytes). The
// checksum covers the payload only; the bound fields let a reader reject a
// foreign, stale or torn file before touching the payload.
constexpr std::uint32_t kDiskMagic = 0x43414641;  // "AFAC" little-endian
constexpr std::size_t kHeaderBytes = 40;

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n) {
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < n; ++i) h = (h ^ data[i]) * 1099511628211ull;
    return h;
}

void put_le32(std::uint8_t* p, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_le64(std::uint8_t* p, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_le32(const std::uint8_t* p) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t get_le64(const std::uint8_t* p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

}  // namespace

void ArtifactStore::configure(ArtifactStoreConfig cfg) {
    if (!cfg.disk_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cfg.disk_dir, ec);
        base::check(!ec, "artifact cache directory '" + cfg.disk_dir +
                             "' cannot be created: " + ec.message());
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        memory_budget_bytes_ = cfg.memory_budget_bytes;
        disk_dir_ = std::move(cfg.disk_dir);
        disk_budget_bytes_ = cfg.disk_budget_bytes;
        disk_max_age_seconds_ = cfg.disk_max_age_seconds;
        evict_locked();  // a shrunk budget takes effect immediately
    }
    if (cfg.disk_budget_bytes != 0 || cfg.disk_max_age_seconds != 0) prune_disk();
}

void ArtifactStore::prune_disk() {
    std::string dir;
    std::size_t budget = 0;
    std::uint64_t max_age = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        dir = disk_dir_;
        budget = disk_budget_bytes_;
        max_age = disk_max_age_seconds_;
    }
    if (dir.empty()) return;

    // Scan unlocked: GC races with concurrent readers/writers by design
    // (unlink is safe against open readers; a freshly renamed blob we miss
    // survives until the next prune).
    struct Blob {
        std::filesystem::path path;
        std::string name;
        std::filesystem::file_time_type mtime;
        std::uintmax_t size = 0;
    };
    std::vector<Blob> blobs;
    std::uintmax_t total = 0;
    std::uint64_t pruned = 0;
    std::error_code ec;
    const auto now = std::filesystem::file_time_type::clock::now();
    for (std::filesystem::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        const std::filesystem::directory_entry& entry = *it;
        if (!entry.is_regular_file(ec) || ec) continue;
        Blob b;
        b.path = entry.path();
        b.name = b.path.filename().string();
        b.mtime = entry.last_write_time(ec);
        if (ec) continue;
        // Stale temp files (a writer that died mid-publish) are junk once
        // old enough that no live writer can still be renaming them.
        if (b.name.find(".tmp.") != std::string::npos) {
            if (now - b.mtime > std::chrono::hours(1)) std::filesystem::remove(b.path, ec);
            continue;
        }
        b.size = entry.file_size(ec);
        if (ec) continue;
        if (max_age != 0 && now - b.mtime > std::chrono::seconds(max_age)) {
            if (std::filesystem::remove(b.path, ec) && !ec) ++pruned;
            continue;
        }
        total += b.size;
        blobs.push_back(std::move(b));
    }
    if (budget != 0 && total > budget) {
        // Oldest first; filename (the key hex) breaks mtime ties so the
        // victim order is stable across runs.
        std::sort(blobs.begin(), blobs.end(), [](const Blob& a, const Blob& b) {
            if (a.mtime != b.mtime) return a.mtime < b.mtime;
            return a.name < b.name;
        });
        for (const Blob& b : blobs) {
            if (total <= budget) break;
            std::error_code rec;
            if (std::filesystem::remove(b.path, rec) && !rec) {
                total -= b.size;
                ++pruned;
            }
        }
    }
    if (pruned != 0) {
        std::lock_guard<std::mutex> lock(mu_);
        disk_pruned_ += pruned;
    }
}

void ArtifactStore::insert_locked(ArtifactKey key, std::any value, std::size_t bytes) const {
    Entry e;
    e.value = std::move(value);
    e.bytes = bytes;
    e.last_use = ++lru_clock_;
    resident_bytes_ += bytes;
    map_.emplace(key, std::move(e));
    evict_locked();
}

void ArtifactStore::evict_locked() const {
    if (memory_budget_bytes_ == 0) return;
    while (resident_bytes_ > memory_budget_bytes_ && !map_.empty()) {
        auto victim = map_.begin();
        for (auto it = std::next(map_.begin()); it != map_.end(); ++it)
            if (it->second.last_use < victim->second.last_use) victim = it;
        resident_bytes_ -= victim->second.bytes;
        map_.erase(victim);
        ++evictions_;
    }
}

std::string ArtifactStore::blob_path(ArtifactKey key) const {
    return (std::filesystem::path(disk_dir_) / key_hex(key)).string();
}

std::optional<std::vector<std::uint8_t>> ArtifactStore::disk_read(ArtifactKey key,
                                                                  std::uint32_t type_id) const {
    std::ifstream in(blob_path(key), std::ios::binary);
    if (!in) return std::nullopt;  // no blob: a plain miss

    std::uint8_t header[kHeaderBytes];
    in.read(reinterpret_cast<char*>(header), kHeaderBytes);
    if (in.gcount() != static_cast<std::streamsize>(kHeaderBytes)) {
        count_bad_blob();
        return std::nullopt;
    }
    const std::uint32_t magic = get_le32(header);
    const std::uint32_t version = get_le32(header + 4);
    const std::uint32_t blob_type = get_le32(header + 8);
    const std::uint64_t blob_key = get_le64(header + 16);
    const std::uint64_t payload_size = get_le64(header + 24);
    const std::uint64_t checksum = get_le64(header + 32);
    if (magic != kDiskMagic || version != kDiskFormatVersion || blob_key != key) {
        count_bad_blob();  // foreign file or stale format: treat as a miss
        return std::nullopt;
    }
    // A differently-typed blob under this key (64-bit key collision written
    // by another type's publish) is a legitimate miss, not corruption.
    if (blob_type != type_id) return std::nullopt;

    std::vector<std::uint8_t> payload(static_cast<std::size_t>(payload_size));
    in.read(reinterpret_cast<char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
    if (in.gcount() != static_cast<std::streamsize>(payload.size()) ||
        fnv1a64(payload.data(), payload.size()) != checksum) {
        count_bad_blob();  // truncated or corrupt payload
        return std::nullopt;
    }
    return payload;
}

void ArtifactStore::disk_write(ArtifactKey key, std::uint32_t type_id,
                               const std::vector<std::uint8_t>& payload) const {
    // Unique-enough temp name per process and call: concurrent writers of
    // one key (in this process or another) each rename a complete file
    // into place, so readers never observe a torn blob.
    static std::atomic<std::uint64_t> temp_counter{0};
    const std::string path = blob_path(key);
    const std::string temp = path + ".tmp." +
                             std::to_string(reinterpret_cast<std::uintptr_t>(&temp_counter)) +
                             "." + std::to_string(temp_counter.fetch_add(1));

    std::uint8_t header[kHeaderBytes] = {};
    put_le32(header, kDiskMagic);
    put_le32(header + 4, kDiskFormatVersion);
    put_le32(header + 8, type_id);
    put_le64(header + 16, key);
    put_le64(header + 24, payload.size());
    put_le64(header + 32, fnv1a64(payload.data(), payload.size()));

    bool ok = false;
    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        if (out) {
            out.write(reinterpret_cast<const char*>(header), kHeaderBytes);
            out.write(reinterpret_cast<const char*>(payload.data()),
                      static_cast<std::streamsize>(payload.size()));
            out.flush();
            ok = out.good();
        }
    }
    std::error_code ec;
    if (ok) {
        std::filesystem::rename(temp, path, ec);
        ok = !ec;
    }
    if (!ok) {
        std::filesystem::remove(temp, ec);
        count_disk_write_failure();
        return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++disk_writes_;
}

void ArtifactStore::count_bad_blob() const {
    std::lock_guard<std::mutex> lock(mu_);
    ++disk_bad_blobs_;
}

void ArtifactStore::count_disk_write_failure() const {
    std::lock_guard<std::mutex> lock(mu_);
    ++disk_write_failures_;
}

std::shared_ptr<const core::RRGraph> ArtifactStore::rr_for(const core::ArchSpec& arch,
                                                           base::ThreadPool* pool) const {
    return rr_for_keyed(fingerprint_arch(arch), [&]() -> std::shared_ptr<const core::RRGraph> {
        return pool ? std::make_shared<core::RRGraph>(arch, *pool)
                    : std::make_shared<core::RRGraph>(arch);
    });
}

std::shared_ptr<const core::RRGraph> ArtifactStore::rr_for_keyed(
    std::uint64_t fp,
    const std::function<std::shared_ptr<const core::RRGraph>()>& build) const {
    for (;;) {
        std::promise<std::shared_ptr<const core::RRGraph>> promise;
        std::shared_future<std::shared_ptr<const core::RRGraph>> fut;
        bool builder = false;
        {
            std::lock_guard<std::mutex> lock(rr_mu_);
            const auto it = rr_.find(fp);
            if (it == rr_.end()) {
                fut = promise.get_future().share();
                rr_.emplace(fp, fut);
                builder = true;
                ++rr_misses_;
            } else {
                fut = it->second;
                ++rr_hits_;
            }
        }
        if (builder) {
            // Build outside the lock: other architectures stay unblocked,
            // and same-architecture callers wait on the future instead of
            // racing.
            try {
                promise.set_value(build());
            } catch (...) {
                // Erase the memo entry BEFORE publishing the error: from
                // the moment the exception is observable, no caller can
                // find the errored future (has_rr is already false and the
                // next rr_for claims a fresh build). Only the waiters
                // parked on this very future see it — and they retry below.
                {
                    std::lock_guard<std::mutex> lock(rr_mu_);
                    rr_.erase(fp);
                }
                promise.set_exception(std::current_exception());
                throw;  // the failing builder reports its own error
            }
            return fut.get();
        }
        try {
            return fut.get();
        } catch (...) {
            // The build we waited on failed. Its memo entry is gone, so
            // retry with a fresh build (possibly becoming the builder)
            // instead of adopting an error another caller produced.
        }
    }
}

bool ArtifactStore::begin_compute(ArtifactKey key) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        if (map_.count(key)) return false;  // published while we waited
        const auto it = inflight_.find(key);
        if (it == inflight_.end()) {
            Inflight inf;
            inf.done = std::make_shared<std::promise<void>>();
            inf.wait = inf.done->get_future().share();
            inflight_.emplace(key, std::move(inf));
            return true;
        }
        std::shared_future<void> fut = it->second.wait;
        lock.unlock();
        fut.wait();
        lock.lock();
        // Loop: the computer either published (return false above) or
        // failed without publishing (this caller may claim the key).
    }
}

void ArtifactStore::finish_compute(ArtifactKey key) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = inflight_.find(key);
    if (it == inflight_.end()) return;
    it->second.done->set_value();
    inflight_.erase(it);
}

void ArtifactStore::clear() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        map_.clear();  // inflight_ stays: computers finish and re-publish
        resident_bytes_ = 0;
    }
    std::lock_guard<std::mutex> lock(rr_mu_);
    rr_.clear();  // racing builders hold their own future copies
}

bool ArtifactStore::has_rr(const core::ArchSpec& arch) const {
    const std::uint64_t fp = fingerprint_arch(arch);
    std::lock_guard<std::mutex> lock(rr_mu_);
    return rr_.count(fp) != 0;
}

ArtifactStoreStats ArtifactStore::stats() const {
    ArtifactStoreStats s;
    {
        std::lock_guard<std::mutex> lock(mu_);
        s.hits = hits_;
        s.disk_hits = disk_hits_;
        s.misses = misses_;
        s.evictions = evictions_;
        s.collisions = collisions_;
        s.disk_writes = disk_writes_;
        s.disk_write_failures = disk_write_failures_;
        s.disk_bad_blobs = disk_bad_blobs_;
        s.disk_pruned = disk_pruned_;
        s.resident_bytes = resident_bytes_;
        s.num_artifacts = map_.size();
        s.memory_budget_bytes = memory_budget_bytes_;
    }
    std::lock_guard<std::mutex> lock(rr_mu_);
    s.rr_hits = rr_hits_;
    s.rr_misses = rr_misses_;
    s.num_rr_graphs = rr_.size();
    return s;
}

std::uint64_t ArtifactStore::hits() const noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
}

std::uint64_t ArtifactStore::misses() const noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
}

std::size_t ArtifactStore::num_artifacts() const noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

std::size_t ArtifactStore::num_rr_graphs() const noexcept {
    std::lock_guard<std::mutex> lock(rr_mu_);
    return rr_.size();
}

}  // namespace afpga::cad
