#include "base/strings.hpp"

#include <charconv>
#include <cstdio>

namespace afpga::base {

std::string format_double(double v, int decimals) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
    return buf;
}

std::string format_percent(double ratio, int decimals) {
    return format_double(ratio * 100.0, decimals) + "%";
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i) out += sep;
        out += parts[i];
    }
    return out;
}

std::vector<std::string> split(std::string_view s, char sep) {
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.emplace_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
    return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string bus_bit(std::string_view name, std::size_t i) {
    return std::string(name) + "[" + std::to_string(i) + "]";
}

std::optional<std::uint64_t> parse_uint(std::string_view s, std::uint64_t max) {
    std::uint64_t v = 0;
    const char* end = s.data() + s.size();
    // from_chars takes no sign, space or base prefix; an overflow is an error.
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (s.empty() || ec != std::errc() || ptr != end || v > max) return std::nullopt;
    return v;
}

}  // namespace afpga::base
