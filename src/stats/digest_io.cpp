#include "stats/digest_io.hpp"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <cstring>
#include <ostream>

#include "sim/contracts.hpp"

namespace acute::stats {

using sim::expects;

std::uint64_t double_bits(double x) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof x);
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

double double_from_bits(std::uint64_t bits) {
  double x = 0;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

/// Every byte value as its two lowercase hex digits, so encoding a 64-bit
/// word is eight table loads.
constexpr std::array<char, 512> kHexPairs = [] {
  std::array<char, 512> pairs{};
  for (std::size_t byte = 0; byte < 256; ++byte) {
    pairs[2 * byte] = kHexDigits[byte >> 4];
    pairs[2 * byte + 1] = kHexDigits[byte & 0xf];
  }
  return pairs;
}();

/// Lowercase hex digit values; 0xff marks every other byte (uppercase
/// included, so only the canonical spelling decodes).
constexpr std::array<unsigned char, 256> kHexValues = [] {
  std::array<unsigned char, 256> values{};
  values.fill(0xff);
  for (unsigned char digit = 0; digit < 16; ++digit) {
    values[static_cast<unsigned char>(kHexDigits[digit])] = digit;
  }
  return values;
}();

double read_double(TokenCursor& in) {
  std::uint64_t bits = 0;
  expects(in.hex64(bits), "digest_io: malformed double bit pattern");
  return double_from_bits(bits);
}

void append_double(std::string& out, double x) {
  append_hex64(out, double_bits(x));
}

}  // namespace

void append_decimal(std::string& out, std::uint64_t value) {
  char digits[20];
  const auto result = std::to_chars(digits, digits + sizeof digits, value);
  out.append(digits, result.ptr);
}

void append_hex64(std::string& out, std::uint64_t bits) {
  char hex[16];
  for (int byte = 7; byte >= 0; --byte) {
    const std::size_t pair = 2 * (bits & 0xff);
    hex[2 * byte] = kHexPairs[pair];
    hex[2 * byte + 1] = kHexPairs[pair + 1];
    bits >>= 8;
  }
  out.append(hex, sizeof hex);
}

bool TokenCursor::token(std::string_view& out) {
  if (!first_) {
    if (rest_.empty() || rest_.front() != ' ') return false;
    rest_.remove_prefix(1);
  }
  first_ = false;
  const std::size_t length = std::min(rest_.find(' '), rest_.size());
  if (length == 0) return false;
  out = rest_.substr(0, length);
  rest_.remove_prefix(length);
  return true;
}

bool TokenCursor::literal(std::string_view expected) {
  std::string_view text;
  return token(text) && text == expected;
}

bool TokenCursor::hex64(std::uint64_t& out) {
  std::string_view text;
  if (!token(text) || text.size() != 16) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    const unsigned digit = kHexValues[static_cast<unsigned char>(c)];
    if (digit > 0xf) return false;
    value = (value << 4) | digit;
  }
  out = value;
  return true;
}

void append_digest(std::string& out, const MergingDigest& digest) {
  const DigestSnapshot snap = digest.snapshot();
  out += "dgst ";
  append_decimal(out, snap.compression);
  out += ' ';
  append_decimal(out, snap.count);
  for (const double x : {snap.sum, snap.sum_sq, snap.min, snap.max}) {
    out += ' ';
    append_double(out, x);
  }
  out += ' ';
  append_decimal(out, snap.centroids.size());
  for (const auto& [mean, weight] : snap.centroids) {
    out += ' ';
    append_double(out, mean);
    out += ' ';
    append_double(out, weight);
  }
}

void write_digest(std::ostream& out, const MergingDigest& digest) {
  std::string text;
  append_digest(text, digest);
  out << text;
}

MergingDigest read_digest(TokenCursor& in) {
  expects(in.literal("dgst"), "digest_io: missing digest magic");
  DigestSnapshot snap;
  expects(in.decimal(snap.compression), "digest_io: malformed compression");
  expects(in.decimal(snap.count), "digest_io: malformed count");
  snap.sum = read_double(in);
  snap.sum_sq = read_double(in);
  snap.min = read_double(in);
  snap.max = read_double(in);
  std::uint64_t centroid_count = 0;
  expects(in.decimal(centroid_count), "digest_io: malformed centroid count");
  // Each centroid is two 16-digit doubles with their separators.
  snap.centroids.reserve(
      std::min<std::uint64_t>(centroid_count, in.bytes_left() / (2 * 17)));
  for (std::uint64_t i = 0; i < centroid_count; ++i) {
    const double mean = read_double(in);
    const double weight = read_double(in);
    snap.centroids.emplace_back(mean, weight);
  }
  return MergingDigest::from_snapshot(snap);
}

}  // namespace acute::stats
