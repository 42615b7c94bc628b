/// \file
/// Error-handling helpers.
///
/// Library-level contract violations and data errors throw
/// afpga::base::Error; internal invariants use AFPGA_ASSERT which also
/// throws (so tests can verify failure paths without death tests).
///
/// Threading: everything here is stateless and safe to call from any
/// thread; exceptions thrown inside pool tasks propagate through the
/// task's future (see base/threadpool.hpp).
#pragma once

#include <stdexcept>
#include <string>

namespace afpga::base {

/// Root exception for all library errors.
class Error : public std::runtime_error {
public:
    /// Wrap a diagnostic message.
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throw Error with `message` if `condition` is false.
inline void check(bool condition, const std::string& message) {
    if (!condition) throw Error(message);
}

/// Same, for a literal message: the string is only built on failure, so a
/// passing check costs no allocation (hot accessors call this).
inline void check(bool condition, const char* message) {
    if (!condition) [[unlikely]] throw Error(message);
}

/// Unconditionally throw Error with `message`.
[[noreturn]] inline void fail(const std::string& message) { throw Error(message); }

}  // namespace afpga::base

/// Internal invariant check; always enabled (cost is negligible next to the
/// algorithms it guards) so release builds keep their safety net.
#define AFPGA_ASSERT(cond, msg)                                                      \
    do {                                                                             \
        if (!(cond))                                                                 \
            throw ::afpga::base::Error(std::string("assertion failed: ") + (msg) +   \
                                       " [" #cond "] at " __FILE__ ":" +             \
                                       std::to_string(__LINE__));                    \
    } while (false)
