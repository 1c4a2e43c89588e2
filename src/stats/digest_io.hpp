// Exact text serialization of MergingDigest, for campaign checkpoints.
//
// Doubles round-trip as IEEE-754 bit patterns (16 hex digits), never as
// decimal: a checkpointed digest must restore to the bit-identical state, or
// a resumed campaign's merged quantiles would drift from the uninterrupted
// run's. The encoding is a flat token stream, so digests embed directly into
// larger line-oriented records (checkpoint files).
//
// The grammar is canonical: tokens are separated by exactly one space,
// decimals carry no sign and no leading zero, and hex tokens are exactly 16
// lowercase digits. The decoder accepts nothing else, so re-encoding any
// accepted input reproduces its bytes — which is what lets a checkpoint
// reader keep a validated line's bytes instead of rendering it again.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>

#include "stats/digest.hpp"

namespace acute::stats {

/// The IEEE-754 bit pattern of `x` (and back). memcpy-based, so NaNs and
/// signed zeros survive unchanged.
[[nodiscard]] std::uint64_t double_bits(double x);
[[nodiscard]] double double_from_bits(std::uint64_t bits);

/// Appends `value` in decimal.
void append_decimal(std::string& out, std::uint64_t value);
/// Appends `bits` as exactly 16 lowercase hex digits.
void append_hex64(std::string& out, std::uint64_t bits);

/// Fewest bytes append_digest() can emit: the magic, three one-digit
/// integers and four 16-digit doubles, with separators.
inline constexpr std::size_t kMinDigestBytes = 4 + 3 * 2 + 4 * 17;

/// Strict reader over one canonical token line. Every getter takes the
/// next token (a single space must precede every token but the first) and
/// returns false when that token is missing or not canonical; the cursor is
/// then spent. No token is copied.
class TokenCursor {
 public:
  explicit TokenCursor(std::string_view text) : rest_(text) {}

  /// The next token: the bytes up to the next space or the end. False on
  /// a missing separator or an empty token (a doubled or trailing space).
  [[nodiscard]] bool token(std::string_view& out);
  /// The next token equals `expected`.
  [[nodiscard]] bool literal(std::string_view expected);
  /// An unsigned decimal: "0" or a nonzero digit then digits, fitting T.
  /// (from_chars itself refuses signs and whitespace.)
  template <typename T>
  [[nodiscard]] bool decimal(T& out) {
    static_assert(std::is_unsigned_v<T>);
    std::string_view text;
    if (!token(text) || (text[0] == '0' && text.size() > 1)) return false;
    const char* end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, out);
    return error == std::errc{} && stop == end;
  }
  /// Exactly 16 lowercase hex digits (a double_bits() or hash token).
  [[nodiscard]] bool hex64(std::uint64_t& out);

  /// Bytes not yet consumed (parsers cap untrusted counts by it before
  /// reserving, so a corrupt count fails at the short read instead of in
  /// the allocator).
  [[nodiscard]] std::size_t bytes_left() const { return rest_.size(); }
  /// True once every byte is consumed.
  [[nodiscard]] bool done() const { return rest_.empty(); }

 private:
  std::string_view rest_;
  bool first_ = true;
};

/// Appends `digest` as tokens:
///   dgst <compression> <count> <sum> <sum_sq> <min> <max> <n> <mean>
///   <weight> ...
/// Integers are decimal; doubles are 16-hex-digit bit patterns. No leading
/// or trailing separator — callers embedding a digest mid-line add their
/// own.
void append_digest(std::string& out, const MergingDigest& digest);

/// append_digest() onto a stream (the CLI's digest dump).
void write_digest(std::ostream& out, const MergingDigest& digest);

/// Reads one digest's tokens from `in`. Throws sim::ContractViolation on
/// malformed input (bad magic, short read, a non-canonical token, a
/// structurally invalid snapshot — including a compression above
/// MergingDigest::kMaxCompression), never anything else.
[[nodiscard]] MergingDigest read_digest(TokenCursor& in);

}  // namespace acute::stats
