// TCP-lite: a reduced reliable transport over IP.
//
// Section 3's argument is that TCP buys its guarantees "by creating more network traffic in
// the form of acknowledgments and requests for retransmission" — overhead a same-ring
// continuous-media stream does not need. This module implements enough of TCP to make that
// overhead measurable: sliding window, cumulative acks, retransmission timers, in-order
// delivery with a reorder buffer. It is also the paper's era-faithful baseline transport.

#ifndef SRC_PROTO_TCP_LITE_H_
#define SRC_PROTO_TCP_LITE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "src/kern/unix_kernel.h"
#include "src/proto/ip.h"

namespace ctms {

class TcpLite;

class TcpLiteEndpoint {
 public:
  struct Config {
    uint16_t local_port = 0;
    uint16_t remote_port = 0;
    RingAddress remote = 0;
    int window_packets = 4;
    int64_t send_queue_limit = 16;                // segments buffered beyond the window
    SimDuration segment_cost = Microseconds(300);  // tcp_output per data segment
    SimDuration input_cost = Microseconds(250);    // tcp_input per segment
    SimDuration ack_cost = Microseconds(180);      // generating an ack
    int64_t ack_bytes = 60;
    SimDuration rto = Milliseconds(500);
    int max_retransmits = 8;
    // Receiver reorder buffer cap (segments). Under sustained loss the buffer would
    // otherwise grow without limit; see PROTOCOL.md ("TCP-lite baseline notes").
    int reorder_limit = 32;
  };

  // In-order delivery to the application.
  void SetDeliver(std::function<void(const Packet&)> deliver) { deliver_ = std::move(deliver); }

  // Queues `bytes` for transmission; returns false if the send buffer is full.
  bool Send(int64_t bytes);

  uint64_t segments_sent() const { return segments_sent_; }
  uint64_t retransmits() const { return retransmits_; }
  uint64_t acks_sent() const { return acks_sent_; }
  uint64_t delivered() const { return delivered_; }
  uint64_t send_queue_drops() const { return send_queue_drops_; }
  uint64_t reorder_drops() const { return reorder_drops_; }
  size_t reorder_buffered() const { return reorder_.size(); }
  bool failed() const { return failed_; }
  size_t unacked() const { return unacked_.size(); }
  const Config& config() const { return config_; }

 private:
  friend class TcpLite;
  TcpLiteEndpoint(UnixKernel* kernel, IpLayer* ip, Config config);

  void Input(const Packet& packet);
  void HandleAck(uint32_t ack_seq);
  void HandleData(const Packet& packet);
  void TrySendWindow();
  void TransmitSegment(uint32_t seq, int64_t bytes, bool retransmission);
  void SendAck();
  void ArmTimer();
  void OnTimeout();

  UnixKernel* kernel_;
  IpLayer* ip_;
  Config config_;
  Cpu::JobKind* output_kind_;
  Cpu::JobKind* input_kind_;
  Cpu::JobKind* ack_kind_;
  std::function<void(const Packet&)> deliver_;

  // Sender state.
  uint32_t next_seq_ = 1;
  std::deque<int64_t> send_queue_;                // byte sizes awaiting a window slot
  std::map<uint32_t, int64_t> unacked_;           // seq -> bytes in flight
  EventId rto_event_ = kInvalidEventId;
  int timeouts_in_a_row_ = 0;
  bool failed_ = false;

  // Receiver state.
  uint32_t expected_seq_ = 1;
  std::map<uint32_t, Packet> reorder_;

  uint64_t segments_sent_ = 0;
  uint64_t retransmits_ = 0;
  uint64_t acks_sent_ = 0;
  uint64_t delivered_ = 0;
  uint64_t send_queue_drops_ = 0;
  uint64_t reorder_drops_ = 0;
};

// Per-machine TCP-lite instance: owns the port demux and creates endpoints.
class TcpLite {
 public:
  TcpLite(UnixKernel* kernel, IpLayer* ip);

  TcpLiteEndpoint* CreateEndpoint(TcpLiteEndpoint::Config config);

 private:
  UnixKernel* kernel_;
  IpLayer* ip_;
  std::map<uint16_t, std::unique_ptr<TcpLiteEndpoint>> endpoints_;
};

}  // namespace ctms

#endif  // SRC_PROTO_TCP_LITE_H_
