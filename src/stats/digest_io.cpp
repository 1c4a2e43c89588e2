#include "stats/digest_io.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>

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

bool parse_hex64(const std::string& token, std::uint64_t& bits) {
  if (token.size() != 16) return false;
  std::uint64_t value = 0;
  for (const char c : token) {
    unsigned digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<unsigned>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<unsigned>(c - 'A' + 10);
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  bits = value;
  return true;
}

std::size_t items_left(std::istream& in, std::size_t item_bytes) {
  const std::streamsize left = in.rdbuf()->in_avail();
  return left > 0 ? static_cast<std::size_t>(left) / item_bytes : 0;
}

namespace {

void write_double(std::ostream& out, double x) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(double_bits(x)));
  out << hex;
}

std::uint64_t read_u64(std::istream& in, const char* what) {
  std::uint64_t value = 0;
  in >> value;
  expects(static_cast<bool>(in), what);
  return value;
}

double read_double(std::istream& in) {
  std::string token;
  in >> token;
  std::uint64_t bits = 0;
  expects(parse_hex64(token, bits), "digest_io: malformed double bit pattern");
  return double_from_bits(bits);
}

}  // namespace

void write_digest(std::ostream& out, const MergingDigest& digest) {
  const DigestSnapshot snap = digest.snapshot();
  out << "dgst " << snap.compression << ' ' << snap.count << ' ';
  write_double(out, snap.sum);
  out << ' ';
  write_double(out, snap.sum_sq);
  out << ' ';
  write_double(out, snap.min);
  out << ' ';
  write_double(out, snap.max);
  out << ' ' << snap.centroids.size();
  for (const auto& [mean, weight] : snap.centroids) {
    out << ' ';
    write_double(out, mean);
    out << ' ';
    write_double(out, weight);
  }
}

MergingDigest read_digest(std::istream& in) {
  std::string magic;
  in >> magic;
  expects(magic == "dgst", "digest_io: missing digest magic");
  DigestSnapshot snap;
  snap.compression =
      static_cast<std::size_t>(read_u64(in, "digest_io: short compression"));
  snap.count = read_u64(in, "digest_io: short count");
  snap.sum = read_double(in);
  snap.sum_sq = read_double(in);
  snap.min = read_double(in);
  snap.max = read_double(in);
  const std::uint64_t centroid_count =
      read_u64(in, "digest_io: short centroid count");
  // Each centroid is two 16-digit doubles with their separators.
  snap.centroids.reserve(std::min<std::uint64_t>(centroid_count,
                                                 items_left(in, 2 * 17)));
  for (std::uint64_t i = 0; i < centroid_count; ++i) {
    const double mean = read_double(in);
    const double weight = read_double(in);
    snap.centroids.emplace_back(mean, weight);
  }
  return MergingDigest::from_snapshot(snap);
}

}  // namespace acute::stats
