#include "cad/fingerprint.hpp"

#include <bit>
#include <cstdio>
#include <vector>

#include "cad/serialize.hpp"
#include "cad/wire.hpp"

namespace afpga::cad {

Fingerprint& Fingerprint::mix_word(std::uint64_t v) noexcept {
    // splitmix64 finalizer over (state ^ input): order-sensitive and
    // avalanche-complete, so single-field edits flip the digest.
    std::uint64_t z = h_ ^ (v + 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    h_ = z ^ (z >> 31);
    return *this;
}

Fingerprint& Fingerprint::mix(double v) noexcept {
    return mix_word(std::bit_cast<std::uint64_t>(v));
}

Fingerprint& Fingerprint::mix(std::string_view s) noexcept {
    mix_word(s.size());
    // Pack 8 bytes per word; the length prefix disambiguates the tail.
    std::uint64_t word = 0;
    int n = 0;
    for (unsigned char c : s) {
        word = (word << 8) | c;
        if (++n == 8) {
            mix_word(word);
            word = 0;
            n = 0;
        }
    }
    if (n) mix_word(word);
    return *this;
}

ArtifactKey chain_key(ArtifactKey upstream, std::string_view stage,
                      std::uint64_t stage_fp) noexcept {
    Fingerprint f;
    f.mix(upstream).mix(stage).mix(stage_fp);
    return f.digest();
}

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n, std::uint64_t seed) {
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string key_hex(ArtifactKey key) {
    char buf[2 + 16 + 1];
    std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(key));
    return buf;
}

std::uint64_t fingerprint_encoding(const std::function<void(BlobWriter&)>& encode) {
    BlobWriter w;
    encode(w);
    const std::vector<std::uint8_t>& bytes = w.bytes();
    Fingerprint f;
    f.mix(std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
    return f.digest();
}

std::uint64_t fingerprint_netlist(const netlist::Netlist& nl) {
    return fingerprint_encoding([&](BlobWriter& w) { wire::encode_netlist(nl, w); });
}

std::uint64_t fingerprint_arch(const core::ArchSpec& arch) {
    return fingerprint_encoding([&](BlobWriter& w) { encode_arch(arch, w); });
}

std::uint64_t fingerprint_hints(const asynclib::MappingHints& hints) {
    return fingerprint_encoding([&](BlobWriter& w) { wire::encode_hints(hints, w); });
}

}  // namespace afpga::cad
