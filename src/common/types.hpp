#pragma once
// Fundamental types and error-handling helpers shared by every dlaperf
// module.
//
// The library follows the C++ Core Guidelines: exceptions for contract
// violations that callers may reasonably trigger (bad arguments, malformed
// files), assertions via DLAP_ASSERT for internal invariants.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dlap {

/// Index type used for all matrix dimensions and loop counters.
///
/// Signed (per ES.100/ES.102) so that reverse loops and differences are
/// safe; 64-bit so that element counts of large operands never overflow.
using index_t = std::int64_t;

/// Most size parameters a model, a sample point or a journal line may
/// have. No routine takes more than three; every reader rejects more, and
/// polynomial evaluation normalizes a point into scratch of this size.
inline constexpr int kMaxDims = 8;

/// Exception thrown on invalid arguments to public API entry points.
class invalid_argument_error : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Exception thrown when a numerical operation cannot proceed
/// (e.g. singular triangular solve, rank-deficient fit without fallback).
class numerical_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Exception thrown on malformed serialized data (model files, call strings).
class parse_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Exception thrown when a repository lookup fails.
class lookup_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {
/// `file` is cut to its base name: dlapd copies this text into client
/// answers, which must neither show the build's source root nor differ
/// between two builds of one commit.
[[noreturn]] inline void throw_invalid(const char* cond, const char* file,
                                       int line, const std::string& msg) {
  const std::string_view path(file);
  const std::string_view base = path.substr(path.find_last_of('/') + 1);
  throw invalid_argument_error(std::string(base) + ":" + std::to_string(line) +
                               ": requirement `" + cond + "` violated" +
                               (msg.empty() ? "" : (": " + msg)));
}
}  // namespace detail

}  // namespace dlap

/// Precondition check on public API boundaries; throws
/// dlap::invalid_argument_error naming the source file (base name) and
/// line when violated.
#define DLAP_REQUIRE(cond, msg)                                         \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::dlap::detail::throw_invalid(#cond, __FILE__, __LINE__, (msg));  \
    }                                                                   \
  } while (false)

/// Internal invariant check; compiled out in release unless
/// DLAPERF_CHECKED_BUILD is defined. Kept cheap so hot kernels can use it.
#if defined(DLAPERF_CHECKED_BUILD) || !defined(NDEBUG)
#define DLAP_ASSERT(cond) DLAP_REQUIRE(cond, "internal invariant")
#else
#define DLAP_ASSERT(cond) ((void)0)
#endif
