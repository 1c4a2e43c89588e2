#include "fabric/wire.hpp"

#include <algorithm>
#include <cstring>

#include "sim/contracts.hpp"

namespace acute::fabric {

using sim::expects;

namespace {

/// The u32 length prefix.
constexpr std::size_t kHeaderBytes = 4;

/// A FrameReader's first buffer: room for dozens of shard_done frames per
/// recv.
constexpr std::size_t kReadChunk = 64u << 10;

void put_u32(std::string& out, std::uint32_t value) {
  for (int byte = 0; byte < 4; ++byte) {
    out.push_back(static_cast<char>((value >> (8 * byte)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    out.push_back(static_cast<char>((value >> (8 * byte)) & 0xff));
  }
}

/// Bounds-checked little-endian reader over a frame payload; any overrun is
/// a torn frame, reported loudly like every other wire malformation.
struct Cursor {
  std::string_view bytes;

  std::uint32_t u32() { return static_cast<std::uint32_t>(take(4)); }
  std::uint64_t u64() { return take(8); }

  std::uint64_t take(int width) {
    expects(bytes.size() >= static_cast<std::size_t>(width),
            "fabric wire: truncated frame payload");
    std::uint64_t value = 0;
    for (int byte = 0; byte < width; ++byte) {
      value |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(bytes[byte]))
               << (8 * byte);
    }
    bytes.remove_prefix(static_cast<std::size_t>(width));
    return value;
  }

  void done() const {
    expects(bytes.empty(), "fabric wire: trailing bytes in frame payload");
  }
};

/// The shared header decoder, used by read_frame and FrameReader alike: the
/// byte count a length prefix promises; a torn frame unless plausible.
std::uint32_t frame_length(const unsigned char* header) {
  std::uint32_t length = 0;
  for (std::size_t byte = 0; byte < kHeaderBytes; ++byte) {
    length |= static_cast<std::uint32_t>(header[byte]) << (8 * byte);
  }
  expects(length >= 1 && length <= kMaxFrameBytes,
          "fabric wire: torn frame (implausible length)");
  return length;
}

/// The frame type a type byte names; a torn frame when it names none.
FrameType frame_type(unsigned char type) {
  expects(type >= static_cast<unsigned char>(FrameType::hello) &&
              type <= static_cast<unsigned char>(FrameType::shutdown),
          "fabric wire: torn frame (unknown frame type)");
  return static_cast<FrameType>(type);
}

/// Reads exactly `size` bytes. False only on EOF before the first byte;
/// EOF after a partial read is a torn frame.
bool recv_exact(Transport& transport, void* data, std::size_t size) {
  char* bytes = static_cast<char*>(data);
  std::size_t read = 0;
  while (read < size) {
    const std::size_t got = transport.recv_some(bytes + read, size - read);
    if (got == 0) {
      expects(read == 0, "fabric wire: torn frame (peer died mid-frame)");
      return false;
    }
    read += got;
  }
  return true;
}

}  // namespace

void append_frame(std::string& out, FrameType type,
                  std::string_view payload) {
  expects(payload.size() < kMaxFrameBytes,
          "fabric wire: frame payload exceeds the protocol cap");
  out.reserve(out.size() + kHeaderBytes + 1 + payload.size());
  put_u32(out, static_cast<std::uint32_t>(1 + payload.size()));
  out.push_back(static_cast<char>(type));
  out.append(payload);
}

void write_frame(Transport& transport, FrameType type,
                 std::string_view payload) {
  std::string frame;
  append_frame(frame, type, payload);
  transport.send_all(frame.data(), frame.size());
}

bool read_frame(Transport& transport, Frame& out) {
  unsigned char header[kHeaderBytes];
  if (!recv_exact(transport, header, sizeof header)) return false;
  const std::uint32_t length = frame_length(header);
  unsigned char type = 0;
  expects(recv_exact(transport, &type, 1),
          "fabric wire: torn frame (peer died mid-frame)");
  out.type = frame_type(type);
  out.payload.resize(length - 1);
  if (!out.payload.empty()) {
    expects(recv_exact(transport, out.payload.data(), out.payload.size()),
            "fabric wire: torn frame (peer died mid-frame)");
  }
  return true;
}

bool FrameReader::fill() {
  if (begin_ == end_) {
    begin_ = end_ = 0;
  } else if (begin_ > 0) {
    // Only an unfinished frame is left: move it to the front.
    std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  if (end_ == buffer_.size()) {
    // Full of one unfinished frame: double, up to the largest legal frame
    // (which next() has already checked this one against).
    buffer_.resize(std::min(std::max(kReadChunk, 2 * buffer_.size()),
                            kHeaderBytes + kMaxFrameBytes));
  }
  const std::size_t got =
      transport_.recv_some(buffer_.data() + end_, buffer_.size() - end_);
  if (got == 0) {
    expects(begin_ == end_, "fabric wire: torn frame (peer died mid-frame)");
    return false;
  }
  end_ += got;
  return true;
}

bool FrameReader::next(FrameView& out) {
  const std::size_t have = end_ - begin_;
  if (have < kHeaderBytes) return false;
  const auto* bytes =
      reinterpret_cast<const unsigned char*>(buffer_.data() + begin_);
  const std::uint32_t length = frame_length(bytes);
  if (have == kHeaderBytes) return false;
  const FrameType type = frame_type(bytes[kHeaderBytes]);
  if (have < kHeaderBytes + length) return false;
  out.type = type;
  out.payload = std::string_view(buffer_.data() + begin_ + kHeaderBytes + 1,
                                 length - 1);
  begin_ += kHeaderBytes + length;
  return true;
}

std::string encode_hello(const HelloBody& body) {
  std::string payload;
  put_u32(payload, body.protocol);
  put_u64(payload, body.spec_hash);
  put_u64(payload, body.seed);
  put_u64(payload, body.shard_count);
  return payload;
}

HelloBody decode_hello(std::string_view payload) {
  Cursor cursor{payload};
  HelloBody body;
  body.protocol = cursor.u32();
  body.spec_hash = cursor.u64();
  body.seed = cursor.u64();
  body.shard_count = cursor.u64();
  cursor.done();
  return body;
}

std::string encode_hello_ok(const HelloOkBody& body) {
  std::string payload;
  put_u64(payload, body.lease_timeout_ms);
  return payload;
}

HelloOkBody decode_hello_ok(std::string_view payload) {
  Cursor cursor{payload};
  HelloOkBody body;
  body.lease_timeout_ms = cursor.u64();
  cursor.done();
  return body;
}

std::string encode_lease_grant(const LeaseGrantBody& body) {
  std::string payload;
  put_u64(payload, body.lease_id);
  put_u64(payload, body.begin);
  put_u64(payload, body.end);
  return payload;
}

LeaseGrantBody decode_lease_grant(std::string_view payload) {
  Cursor cursor{payload};
  LeaseGrantBody body;
  body.lease_id = cursor.u64();
  body.begin = cursor.u64();
  body.end = cursor.u64();
  cursor.done();
  expects(body.begin < body.end, "fabric wire: empty lease grant range");
  return body;
}

std::string encode_shard_done(const ShardDoneBody& body) {
  std::string payload;
  put_u64(payload, body.lease_id);
  payload.append(body.record_line);
  return payload;
}

ShardDoneBody decode_shard_done(std::string_view payload) {
  const ShardDoneView view = view_shard_done(payload);
  return ShardDoneBody{view.lease_id, std::string(view.record_line)};
}

ShardDoneView view_shard_done(std::string_view payload) {
  Cursor cursor{payload};
  ShardDoneView view;
  view.lease_id = cursor.u64();
  view.record_line = cursor.bytes;
  return view;
}

std::string encode_lease_id(std::uint64_t lease_id) {
  std::string payload;
  put_u64(payload, lease_id);
  return payload;
}

std::uint64_t decode_lease_id(std::string_view payload) {
  Cursor cursor{payload};
  const std::uint64_t lease_id = cursor.u64();
  cursor.done();
  return lease_id;
}

}  // namespace acute::fabric
