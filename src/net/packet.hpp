// Packet model.
//
// One Packet type flows through every layer of the simulation. It carries the
// per-layer timestamps of the paper's Fig. 1 (t_u, t_k, t_v, t_n on both
// directions), which the testbed later folds into du / dk / dv / dn and the
// overhead decomposition of §2.1.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"

namespace acute::net {

/// Flat node address (plays the role of both MAC and IP in the testbed).
using NodeId = std::uint32_t;

/// Application payload bytes, held in a shared immutable buffer so that
/// forwarding, buffering and broadcast fan-out never duplicate the bytes:
/// copying a Packet bumps a refcount, moving it is a pointer swap.
using PayloadBuffer = std::shared_ptr<const std::vector<std::uint8_t>>;

/// Per-thread accounting of Packet copies/moves. The zero-copy packet path
/// is a hard invariant benches and tests assert on, not a hope: every copy
/// construction/assignment of a Packet increments `copies` on the thread
/// that performed it (campaign shards therefore count independently).
struct PacketOpCounters {
  std::uint64_t copies = 0;
};

namespace detail {
/// Empty tag member embedded in Packet: its copy operations increment the
/// thread-local counter while its (defaulted) move operations stay free, so
/// Packet itself keeps all special members defaulted.
struct PacketCopyProbe {
  PacketCopyProbe() = default;
  PacketCopyProbe(const PacketCopyProbe&) noexcept;
  PacketCopyProbe& operator=(const PacketCopyProbe&) noexcept;
  PacketCopyProbe(PacketCopyProbe&&) noexcept = default;
  PacketCopyProbe& operator=(PacketCopyProbe&&) noexcept = default;
};
}  // namespace detail

/// Broadcast address (beacons).
inline constexpr NodeId kBroadcastId = 0xffff'ffff;

enum class Protocol : std::uint8_t { icmp, tcp, udp, wifi_mgmt };

enum class PacketType : std::uint8_t {
  // ICMP
  icmp_echo_request,
  icmp_echo_reply,
  icmp_time_exceeded,
  // TCP control + data
  tcp_syn,
  tcp_syn_ack,
  tcp_rst,
  http_request,
  http_response,
  // UDP
  udp_data,
  udp_warmup,      // AcuteMon warm-up packet (TTL = 1)
  udp_background,  // AcuteMon background packet (TTL = 1)
  // 802.11 management / control
  wifi_beacon,
  wifi_ps_poll,
  wifi_null,  // null data frame carrying the PM bit
};

[[nodiscard]] const char* to_string(PacketType type);
[[nodiscard]] const char* to_string(Protocol protocol);

/// Per-layer timestamps (Fig. 1 of the paper).
///
/// The send-path stamps are written as the packet descends the phone's stack;
/// `air` is written by the wireless channel when the frame hits the medium;
/// the receive-path stamps are written as the response ascends the stack.
/// Each stamp is an 8-byte sim::OptionalTimePoint, so the nine take 72 bytes
/// instead of std::optional's 144: cross-traffic datagrams, which never set
/// one, carry them through every scheduled event, and a Packet must stay
/// small enough to move cheaply (the static_asserts below Packet pin it).
struct LayerStamps {
  // Send path (phone egress).
  sim::OptionalTimePoint app_send;           // t_u^o
  sim::OptionalTimePoint kernel_send;        // t_k^o (bpf/tcpdump tap)
  sim::OptionalTimePoint driver_xmit_entry;  // dhd_start_xmit entry
  sim::OptionalTimePoint driver_txpkt;       // dhdsdio_txpkt entry
  // Wireless hop (one per direction in the Fig. 2 testbed).
  sim::OptionalTimePoint air;  // t_n: frame TX start on the medium
  // Receive path (phone ingress).
  sim::OptionalTimePoint driver_isr;          // dhdsdio_isr entry
  sim::OptionalTimePoint driver_rxf_enqueue;  // dhd_rxf_enqueue
  sim::OptionalTimePoint kernel_recv;         // t_k^i (bpf tap)
  sim::OptionalTimePoint app_recv;            // t_u^i
};

/// TCP timestamp option (RFC 7323): senders stamp `tsval` from their own
/// millisecond-class clock; receivers echo the last received value back in
/// `tsecr`. Passive capture-point estimators (passive::PpingEstimator)
/// match tsval -> tsecr pairs to recover RTTs without injecting traffic —
/// the pping/DlyLoc technique. 0 means "option absent" on either field;
/// the simulator's TSval clock (tools::MeasurementTool) never emits 0.
struct TcpTimestamps {
  std::uint32_t tsval = 0;
  std::uint32_t tsecr = 0;
};

/// 802.11-specific header bits used by the AP/STA power-save machinery.
struct WifiHeader {
  /// Power-management bit: true = the sender will doze after this frame.
  bool power_mgmt = false;
  /// More-data bit on AP->STA frames: more buffered frames follow.
  bool more_data = false;
  /// Traffic-indication map carried by beacons: STAs with buffered frames.
  std::vector<NodeId> tim;
  /// Beacons carry their target beacon transmission time (the 802.11
  /// timestamp field); stations use it to synchronize their wake schedule.
  sim::OptionalTimePoint tbtt;
};

struct Packet {
  std::uint64_t id = 0;        // unique per packet
  std::uint64_t probe_id = 0;  // correlates a probe with its response; 0=none
  PacketType type = PacketType::udp_data;
  Protocol protocol = Protocol::udp;
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t size_bytes = 0;  // on-the-wire size incl. headers
  std::uint8_t ttl = 64;
  std::uint32_t flow_id = 0;  // demultiplexes concurrent apps on one phone

  /// TCP timestamp option; all-zero on non-TCP packets.
  TcpTimestamps tcp_ts;

  WifiHeader wifi;
  LayerStamps stamps;

  /// Application payload (HTTP bodies, iPerf datagram fill). Immutable and
  /// shared: many in-flight packets may reference one buffer. Null for the
  /// (common) headers-only packets; `size_bytes` stays the on-the-wire size
  /// either way.
  PayloadBuffer payload;

  /// Simulation instrumentation: servers echo the request's stamps here so
  /// the testbed can decompose RTTs per layer. This substitutes for the
  /// paper's modified driver + tcpdump logs; measurement tools never read it.
  std::shared_ptr<const LayerStamps> request_stamps;

  [[no_unique_address]] detail::PacketCopyProbe copy_probe;

  /// Number of payload bytes attached (0 when payload is null).
  [[nodiscard]] std::size_t payload_size() const {
    return payload == nullptr ? 0 : payload->size();
  }

  /// Wraps `bytes` into a shared immutable payload buffer.
  [[nodiscard]] static PayloadBuffer make_payload(
      std::vector<std::uint8_t> bytes);

  /// This thread's Packet copy accounting (see PacketOpCounters).
  [[nodiscard]] static const PacketOpCounters& op_counters();
  /// Resets this thread's Packet copy accounting.
  static void reset_op_counters();

  /// Allocates a process-unique packet id.
  [[nodiscard]] static std::uint64_t allocate_id();

  /// Builds a packet with a fresh id.
  [[nodiscard]] static Packet make(PacketType type, Protocol protocol,
                                   NodeId src, NodeId dst,
                                   std::uint32_t size_bytes);

  /// Builds the response to `request`: src/dst swapped, probe_id and flow_id
  /// preserved, the request's TSval echoed as the response's TSecr (TCP
  /// only), request stamps attached for testbed correlation.
  [[nodiscard]] static Packet make_response(const Packet& request,
                                            PacketType type,
                                            std::uint32_t size_bytes);

  [[nodiscard]] bool is_wifi_control() const {
    return protocol == Protocol::wifi_mgmt;
  }
  [[nodiscard]] bool is_broadcast() const { return dst == kBroadcastId; }

  [[nodiscard]] std::string describe() const;
};

// Every Packet moves by value through the scheduled events of the wired and
// wireless hops; these keep it from silently regrowing.
static_assert(std::is_trivially_copyable_v<LayerStamps>);
static_assert(sizeof(LayerStamps) == 72);
static_assert(sizeof(Packet) <= 192);

/// Canonical on-the-wire sizes used by the tools (bytes, L3 + payload).
namespace packet_size {
inline constexpr std::uint32_t icmp_echo = 84;      // 56B payload + headers
inline constexpr std::uint32_t tcp_control = 60;    // SYN / SYN-ACK / RST
inline constexpr std::uint32_t http_request = 160;  // small GET
inline constexpr std::uint32_t http_response = 240;
inline constexpr std::uint32_t udp_small = 46;  // AcuteMon warm-up/background
inline constexpr std::uint32_t udp_iperf = 1498;  // iPerf default datagram
}  // namespace packet_size

}  // namespace acute::net
