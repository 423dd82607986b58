#pragma once
// wire.h — strict token/number parsing shared by the line-oriented wire
// formats (StreamingMeasures accumulators in core/measures.cpp, ShardSpecs
// in exp/shard.cpp, RunReports, grid frames and the tools' numeric flags).
// One implementation so the formats cannot drift in how they reject
// malformed input: every failure is a std::invalid_argument with the
// caller's context and the offending field — never UB.
//
// Numbers parse with std::from_chars, not a stream per token: a server
// decodes every ShardDone accumulator on its loop thread, number by number.
// The accepted set is exactly that of `std::istringstream >> T`
// (tests/core_test.cpp checks against a stream-based oracle): decimal
// digits only, one optional leading '+', a leading '-' on signed types
// only, the whole token consumed, and the value within T's range.  Context
// and field are views, so a successful parse builds no string beyond the
// token itself.

#include <charconv>
#include <istream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace pred::core::wire {

[[noreturn]] inline void fail(std::string_view context,
                              const std::string& what) {
  throw std::invalid_argument(std::string(context) + ": " + what);
}

/// One whitespace-separated token, failing with a labeled error.
inline std::string nextToken(std::istream& in, std::string_view context,
                             std::string_view expecting) {
  std::string tok;
  if (!(in >> tok)) {
    fail(context,
         "unexpected end of input, expecting " + std::string(expecting));
  }
  return tok;
}

/// One whitespace-separated integer, fully consumed; junk, overflow, a
/// sign with no digits, and a leading '-' on unsigned targets all fail
/// with the field name.
template <typename T>
T nextNumber(std::istream& in, std::string_view context,
             std::string_view field) {
  static_assert(std::is_integral_v<T>, "wire numbers are integers");
  const std::string tok = nextToken(in, context, field);
  // operator>> takes one leading '+' and from_chars takes none, so skip
  // it — but never in front of a '-'.  from_chars itself rejects '-' on
  // unsigned types.
  const bool plus = tok.front() == '+';
  const char* const first = tok.data() + (plus ? 1 : 0);
  const char* const last = tok.data() + tok.size();
  T value{};
  const auto [end, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || end != last || (plus && *first == '-')) {
    fail(context, "malformed " + std::string(field) + ": '" + tok + "'");
  }
  return value;
}

}  // namespace pred::core::wire
