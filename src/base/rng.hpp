/// \file
/// Deterministic random number generation for CAD algorithms and test
/// sweeps.
///
/// All stochastic stages (placement, tie-breaking, workload generation)
/// take an explicit Rng so that a fixed seed reproduces the exact same
/// bitstream.
///
/// Threading: an Rng object is never shared between threads. Parallel work
/// derives one independent stream per task up front — derive_seed for
/// per-task seeds, fork for child generators — which is the seed-derivation
/// half of the determinism contract (docs/ARCHITECTURE.md).
#pragma once

#include <cstdint>
#include <vector>

namespace afpga::base {

/// splitmix64-seeded xoshiro256** generator.
///
/// Chosen over std::mt19937_64 for a compact, well-documented state that makes
/// determinism across standard-library implementations trivial to guarantee.
/// The draw methods are header-inline: the placement anneal takes many draws
/// per flow and an out-of-line call per draw showed up in profiles.
class Rng {
public:
    /// Seed the generator (splitmix64 expansion of `seed`).
    explicit Rng(std::uint64_t seed = 0xA5F0'12D3'55AA'9E37ULL) noexcept { reseed(seed); }

    /// Reset the state as if freshly constructed with `seed`.
    void reseed(std::uint64_t seed) noexcept;

    /// Canonical seed of sub-stream `stream_id` under `base_seed`. Parallel
    /// tasks (seed sweeps, batch jobs) seed task i with
    /// derive_seed(base_seed, i): the mapping is a pure function of the two
    /// arguments, so the same base seed reproduces the same task streams
    /// regardless of thread count or scheduling.
    [[nodiscard]] static std::uint64_t derive_seed(std::uint64_t base_seed,
                                                   std::uint64_t stream_id) noexcept;

    /// An independent child generator derived from the current state and
    /// `stream_id`. Does not advance this generator: forking any number of
    /// children leaves the parent's sequence untouched, and distinct
    /// stream_ids (or distinct parent states) yield uncorrelated streams.
    [[nodiscard]] Rng fork(std::uint64_t stream_id) const noexcept;

    /// Uniform 64-bit word.
    std::uint64_t next() noexcept {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /// Uniform integer in [0, bound). bound must be > 0.
    std::uint64_t below(std::uint64_t bound) noexcept {
        // Unbiased modulo draw: reject r below the threshold 2^64 mod bound.
        // The threshold is below bound, so a draw r >= bound is accepted
        // without computing it; the values drawn do not change.
        if (bound == 0) return 0;
        std::uint64_t r = next();
        if (r < bound) {
            const std::uint64_t threshold = (~bound + 1) % bound;
            while (r < threshold) r = next();
        }
        return r % bound;
    }

    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
        if (hi <= lo) return lo;
        const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
        return lo + static_cast<std::int64_t>(below(span));
    }

    /// Uniform double in [0, 1).
    double uniform() noexcept { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    /// Bernoulli draw.
    bool chance(double p) noexcept { return uniform() < p; }

    /// Fisher–Yates shuffle.
    template <typename T>
    void shuffle(std::vector<T>& v) noexcept {
        for (std::size_t i = v.size(); i > 1; --i) {
            const std::size_t j = static_cast<std::size_t>(below(i));
            using std::swap;
            swap(v[i - 1], v[j]);
        }
    }

    /// Pick a uniformly random element index; container must be non-empty.
    template <typename T>
    std::size_t pick_index(const std::vector<T>& v) noexcept {
        return static_cast<std::size_t>(below(v.size()));
    }

private:
    static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4] = {};
};

}  // namespace afpga::base
