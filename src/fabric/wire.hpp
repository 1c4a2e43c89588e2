// The fabric wire protocol: length-prefixed frames carrying the lease
// lifecycle and ckpt2 shard records between coordinator and worker.
//
// Frame layout (all integers little-endian):
//   u32 length   — byte count that follows (type byte + payload), 1..16 MiB
//   u8  type     — FrameType
//   ...payload   — type-specific body
//
// EOF semantics mirror the checkpoint file's torn-line rule: end-of-stream
// *between* frames is a clean close (read_frame returns false — how a
// worker's death or a graceful shutdown looks to the peer), while
// end-of-stream *inside* a frame, a zero/oversize length or an unknown type
// is a torn frame — a loud sim::ContractViolation, never a silent skip.
//
// Frames are a byte stream, not datagrams: a sender may coalesce several
// into one send (the worker queues a lease's shard_done frames and its
// lease_done and sends them together when it is about to block on a read),
// and a receiver must not assume one frame per recv. The coordinator reads
// through a FrameReader, which makes one recv per wakeup and decodes every
// complete frame that recv buffered. The coordinator's own sends stay one
// frame per send_all, with the type at byte 4.
//
// The shard payload is deliberately the checkpoint format itself: a
// shard_done frame carries the exact ckpt2 line render_checkpoint_record()
// produces (report::parse_checkpoint_record decodes and validates it, and
// the coordinator then appends those bytes to its checkpoint as received).
// One serialization for disk and wire means the coordinator's checkpoint, a
// worker's streamed result and a single-process campaign's record are
// bit-identical by construction — the round-trip test only has to pin it
// once.
//
// Conversation (worker drives; coordinator replies or pushes):
//   worker → hello{protocol, spec_hash, seed, shard_count}
//   coord  → hello_ok{lease_timeout_ms} | reject{message}  (reject: loud,
//                                                  close)
//   worker → lease_request
//   coord  → lease_grant{lease_id, begin, end} | idle | shutdown
//   worker → lease_request                         (at once, on every
//                                                  grant: the next grant
//                                                  queues behind this lease)
//   worker → heartbeat{lease_id}                   (before a shard, only if
//                                                  lease_timeout_ms / 4 has
//                                                  passed since its last
//                                                  send)
//   worker → shard_done{lease_id, ckpt2 line}      (one per shard)
//   worker → lease_done{lease_id}                  (with the lease's
//                                                  shard_dones, in one send)
//   parked worker (after idle): blocks; coordinator pushes lease_grant
//   (re-leased work) or shutdown when the campaign completes.
// Any frame from a joined worker refreshes every lease it holds, so a
// worker is never silent for more than lease_timeout_ms / 4 plus one shard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fabric/transport.hpp"

namespace acute::fabric {

/// Bumped on any frame/payload layout change; hello carries it so mixed
/// builds reject each other loudly instead of mis-parsing.
inline constexpr std::uint32_t kProtocolVersion = 2;

/// Upper bound on (type byte + payload); a ckpt2 record is a few KiB, so
/// anything near this is garbage, not data.
inline constexpr std::size_t kMaxFrameBytes = 16u << 20;

enum class FrameType : std::uint8_t {
  hello = 1,
  hello_ok = 2,
  reject = 3,
  lease_request = 4,
  lease_grant = 5,
  shard_done = 6,
  lease_done = 7,
  heartbeat = 8,
  idle = 9,
  shutdown = 10,
};

struct Frame {
  FrameType type = FrameType::hello;
  std::string payload;
};

/// A frame decoded in place: `payload` aliases the reader's buffer.
struct FrameView {
  FrameType type = FrameType::hello;
  std::string_view payload;
};

/// Appends one encoded frame to `out`, so a sender can queue several
/// frames and send them with one send_all.
void append_frame(std::string& out, FrameType type,
                  std::string_view payload = {});

/// Sends one frame (append_frame + a single send_all, so a kill tears at
/// most this frame).
void write_frame(Transport& transport, FrameType type,
                 std::string_view payload = {});

/// Reads one frame into `out`. False on clean end-of-stream at a frame
/// boundary; contract violation on a torn frame (EOF mid-frame, bad length,
/// unknown type). Reads exactly the frame's bytes, so it never consumes a
/// following frame; a FrameReader reads ahead instead.
[[nodiscard]] bool read_frame(Transport& transport, Frame& out);

/// Buffered frame decoder over one transport, for a reader that multiplexes
/// peers: fill() makes one recv, and next() yields each complete frame that
/// recv buffered, with read_frame's torn-frame rules. The buffer grows only
/// as bytes arrive, so a hostile length costs no allocation until its bytes
/// do (and never more than kMaxFrameBytes plus the header).
class FrameReader {
 public:
  /// `transport` must outlive the reader.
  explicit FrameReader(Transport& transport) : transport_(transport) {}

  /// One recv_some into the buffer; call it once next() returns false.
  /// False on clean end-of-stream (no partial frame buffered); contract
  /// violation on end-of-stream inside a frame.
  [[nodiscard]] bool fill();

  /// The next complete buffered frame, or false when none is buffered.
  /// `out.payload` stays valid until the next fill(). Contract violation on
  /// a bad length or unknown type as soon as its header is buffered.
  [[nodiscard]] bool next(FrameView& out);

 private:
  Transport& transport_;
  std::vector<char> buffer_;
  std::size_t begin_ = 0;  // first byte not yet yielded
  std::size_t end_ = 0;    // one past the last byte received
};

/// hello payload: everything the coordinator checks before leasing work.
/// spec_hash is CampaignSpec::spec_hash() (shape-only, O(axes) for a grid);
/// the seed rides separately so a seed mismatch gets its own loud message.
struct HelloBody {
  std::uint32_t protocol = kProtocolVersion;
  std::uint64_t spec_hash = 0;
  std::uint64_t seed = 0;
  std::uint64_t shard_count = 0;
};

/// hello_ok payload: the coordinator's base lease timeout. The worker sends
/// at least every lease_timeout_ms / 4 while it runs shards, which keeps
/// its leases alive.
struct HelloOkBody {
  std::uint64_t lease_timeout_ms = 0;
};

/// lease_grant payload: half-open scenario-index range [begin, end).
struct LeaseGrantBody {
  std::uint64_t lease_id = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// shard_done payload: the lease the shard ran under + its ckpt2 record
/// line, byte-for-byte what render_checkpoint_record() produced.
struct ShardDoneBody {
  std::uint64_t lease_id = 0;
  std::string record_line;
};

/// shard_done payload decoded in place: `record_line` aliases the payload.
struct ShardDoneView {
  std::uint64_t lease_id = 0;
  std::string_view record_line;
};

[[nodiscard]] std::string encode_hello(const HelloBody& body);
[[nodiscard]] HelloBody decode_hello(std::string_view payload);
[[nodiscard]] std::string encode_hello_ok(const HelloOkBody& body);
[[nodiscard]] HelloOkBody decode_hello_ok(std::string_view payload);
[[nodiscard]] std::string encode_lease_grant(const LeaseGrantBody& body);
[[nodiscard]] LeaseGrantBody decode_lease_grant(std::string_view payload);
[[nodiscard]] std::string encode_shard_done(const ShardDoneBody& body);
[[nodiscard]] ShardDoneBody decode_shard_done(std::string_view payload);
[[nodiscard]] ShardDoneView view_shard_done(std::string_view payload);
/// heartbeat / lease_done payloads: just the lease id.
[[nodiscard]] std::string encode_lease_id(std::uint64_t lease_id);
[[nodiscard]] std::uint64_t decode_lease_id(std::string_view payload);

}  // namespace acute::fabric
