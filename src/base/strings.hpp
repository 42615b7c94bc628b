/// \file
/// Small string utilities shared across modules.
///
/// Threading: pure functions over their arguments; safe from any thread.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace afpga::base {

/// printf-style double formatting with fixed decimals.
[[nodiscard]] std::string format_double(double v, int decimals);

/// "12.3%" style percentage rendering of a ratio in [0,1].
[[nodiscard]] std::string format_percent(double ratio, int decimals = 1);

/// Join elements with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Split on a single-character separator; keeps empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// True if `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// `s` as a decimal unsigned integer no greater than `max`: the whole string
/// must be digits (no sign, space or suffix), else nullopt. For command-line
/// numbers, where atoi would turn "-1" or "70000" into some other value.
[[nodiscard]] std::optional<std::uint64_t> parse_uint(std::string_view s, std::uint64_t max);

/// name + "[" + i + "]" — the canonical bus-bit naming used by generators.
[[nodiscard]] std::string bus_bit(std::string_view name, std::size_t i);

}  // namespace afpga::base
