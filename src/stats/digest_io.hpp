// Exact text serialization of MergingDigest, for campaign checkpoints.
//
// Doubles round-trip as IEEE-754 bit patterns (16 hex digits), never as
// decimal: a checkpointed digest must restore to the bit-identical state, or
// a resumed campaign's merged quantiles would drift from the uninterrupted
// run's. The encoding is a flat space-separated token stream, so digests
// embed directly into larger line-oriented records (checkpoint files).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "stats/digest.hpp"

namespace acute::stats {

/// The IEEE-754 bit pattern of `x` (and back). memcpy-based, so NaNs and
/// signed zeros survive unchanged.
[[nodiscard]] std::uint64_t double_bits(double x);
[[nodiscard]] double double_from_bits(std::uint64_t bits);

/// Parses exactly 16 hex digits (a double_bits() or hash token) into
/// `bits`; false on any other length or character. Unlike strtoull it
/// takes no sign, "0x" prefix or whitespace.
[[nodiscard]] bool parse_hex64(const std::string& token, std::uint64_t& bits);

/// Fewest bytes write_digest() can emit: the magic, three one-digit
/// integers and four 16-digit doubles, with separators.
inline constexpr std::size_t kMinDigestBytes = 4 + 3 * 2 + 4 * 17;

/// How many items of at least `item_bytes` bytes the unread part of `in`'s
/// buffer can still hold (0 when the buffer cannot tell). Parsers cap an
/// untrusted count by it before reserve(), so a corrupt count fails at the
/// short read instead of in the allocator.
[[nodiscard]] std::size_t items_left(std::istream& in, std::size_t item_bytes);

/// Writes `digest` as tokens:
///   dgst <compression> <count> <sum> <sum_sq> <min> <max> <n> <mean>
///   <weight> ...
/// Integers are decimal; doubles are 16-hex-digit bit patterns. No trailing
/// separator — callers embedding a digest mid-line add their own.
void write_digest(std::ostream& out, const MergingDigest& digest);

/// Parses write_digest()'s token stream from `in`. Throws
/// sim::ContractViolation on malformed input (bad magic, short read,
/// non-hex double, structurally invalid snapshot — including a compression
/// above MergingDigest::kMaxCompression), never anything else.
[[nodiscard]] MergingDigest read_digest(std::istream& in);

}  // namespace acute::stats
