/// \file
/// Deterministic fingerprints for content-addressed stage artifacts.
///
/// Every stage product in the CAD flow is cached under an ArtifactKey: a
/// 64-bit digest of everything the stage's output is a function of — the
/// source netlist, the mapping hints, the architecture, the stage's own
/// option struct, the master seed, and (through key chaining) every
/// upstream stage's key. Two flows that would compute bit-identical
/// products therefore derive the same key, and a key match is safe to
/// treat as "skip the stage": every flow stage is a pure function of the
/// fingerprinted inputs.
///
/// Values are fingerprinted through their codecs (cad/wire): a key hashes
/// the exact bytes the wire would carry, so a type's field list is the one
/// list of what a key covers and cannot drift from a second, hand-written
/// list.
///
/// Threading: Fingerprint is single-owner mutable state; the free
/// fingerprint_* functions are pure and callable from any thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>

#include "asynclib/styles.hpp"
#include "core/archspec.hpp"
#include "netlist/netlist.hpp"

namespace afpga::cad {

class BlobWriter;

/// Content-address of one stage artifact (hex-printed in telemetry).
using ArtifactKey = std::uint64_t;

/// Order-sensitive 64-bit hash accumulator. Keys also name the store's disk
/// blobs, so they are compared across processes; a change to what a key
/// hashes only orphans old blobs (never read again, removed by the disk
/// tier's budget/age pruning) and costs one recompute per product.
class Fingerprint {
public:
    /// Mix one integral (or enum, or bool) value.
    template <typename T>
        requires(std::is_integral_v<T> || std::is_enum_v<T>)
    Fingerprint& mix(T v) noexcept {
        return mix_word(static_cast<std::uint64_t>(v));
    }
    /// Mix a double by exact bit pattern (so 0.5 != 0.25, -0.0 != 0.0).
    Fingerprint& mix(double v) noexcept;
    /// Mix a string: length then bytes (prefix-unambiguous).
    Fingerprint& mix(std::string_view s) noexcept;

    /// The accumulated digest.
    [[nodiscard]] ArtifactKey digest() const noexcept { return h_; }

private:
    Fingerprint& mix_word(std::uint64_t v) noexcept;
    std::uint64_t h_ = 0xC0FFEE'D15EA5E5ULL;
};

/// Derive a downstream stage's key from its upstream key, its stage name
/// and its own option fingerprint — the dependency chaining that makes a
/// change anywhere upstream invalidate everything below it.
[[nodiscard]] ArtifactKey chain_key(ArtifactKey upstream, std::string_view stage,
                                    std::uint64_t stage_fp) noexcept;

/// FNV-1a over `n` bytes: the checksum of wire frames, result streams and
/// disk blobs. Chainable: pass a previous digest as `seed` to extend it.
/// Single-byte changes provably change the digest (each step is a bijection
/// in the accumulator), which is what the frame fuzzer pins.
[[nodiscard]] std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n,
                                    std::uint64_t seed = 0xcbf29ce484222325ull);

/// "0x%016x" rendering used by telemetry and reports.
[[nodiscard]] std::string key_hex(ArtifactKey key);

/// Content hash of the bytes `encode` writes into a fresh BlobWriter. Every
/// artifact-key input that has a codec is hashed this way, so a key covers
/// exactly the fields its codec lists.
[[nodiscard]] std::uint64_t fingerprint_encoding(
    const std::function<void(BlobWriter&)>& encode);

/// Content hash of a gate-level netlist: its wire encoding
/// (wire::encode_netlist), every cell, net, sink order and primary I/O
/// included. Equal fingerprints mean equal encodings, so the flow cannot
/// distinguish the two netlists.
[[nodiscard]] std::uint64_t fingerprint_netlist(const netlist::Netlist& nl);

/// Content hash of an architecture: its exact encoding (encode_arch), so
/// two specs that build different RR graphs never share a key. The flow's
/// stage keys and the store's RR memo use this, not ArchSpec::fingerprint,
/// which is coarser (see core/archspec.hpp).
[[nodiscard]] std::uint64_t fingerprint_arch(const core::ArchSpec& arch);

/// Content hash of the generator's mapping hints: their wire encoding
/// (wire::encode_hints), order-sensitive — techmap consumes them in order.
[[nodiscard]] std::uint64_t fingerprint_hints(const asynclib::MappingHints& hints);

}  // namespace afpga::cad
