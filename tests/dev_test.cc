#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/dev/tr_driver.h"
#include "src/dev/vca.h"
#include "src/hw/machine.h"
#include "src/kern/unix_kernel.h"
#include "src/measure/interval_analyzer.h"
#include "src/measure/recorders.h"
#include "src/proto/ctmsp.h"
#include "src/ring/adapter.h"
#include "src/ring/token_ring.h"
#include "src/sim/simulation.h"

namespace ctms {
namespace {

// A quiet two-machine testbed: no hardclock, no jitter sources, deterministic dispatch.
// Used to verify the data path's exact timing skeleton.
class DevFixture : public ::testing::Test {
 protected:
  DevFixture()
      : sim_(1),
        ring_(&sim_),
        tx_machine_(&sim_, "tx"),
        rx_machine_(&sim_, "rx"),
        tx_kernel_(&tx_machine_),
        rx_kernel_(&rx_machine_) {
    tx_machine_.cpu().set_dispatch_base(Microseconds(40));
    tx_machine_.cpu().set_dispatch_jitter(0);
    rx_machine_.cpu().set_dispatch_base(Microseconds(40));
    rx_machine_.cpu().set_dispatch_jitter(0);
  }

  ~DevFixture() override {
    // Queued CPU jobs hold mbuf chains owned by the kernels, which member order destroys
    // before the machines.
    tx_machine_.cpu().CancelAll();
    rx_machine_.cpu().CancelAll();
  }

  TokenRingAdapter::Config QuietAdapterConfig(MemoryKind kind) {
    TokenRingAdapter::Config config;
    config.dma_buffer_kind = kind;
    config.rx_processing_jitter = 0;
    return config;
  }

  TokenRingDriver::Config CtmsDriverConfig() {
    TokenRingDriver::Config config;
    config.ctms_mode = true;
    return config;
  }

  void BuildCtmsPath(MemoryKind kind, bool rx_copy_to_mbufs = true) {
    tx_adapter_ = std::make_unique<TokenRingAdapter>(&tx_machine_, &ring_,
                                                     QuietAdapterConfig(kind));
    rx_adapter_ = std::make_unique<TokenRingAdapter>(&rx_machine_, &ring_,
                                                     QuietAdapterConfig(kind));
    TokenRingDriver::Config driver_config = CtmsDriverConfig();
    driver_config.rx_copy_ctmsp_to_mbufs = rx_copy_to_mbufs;
    tx_driver_ = std::make_unique<TokenRingDriver>(&tx_kernel_, tx_adapter_.get(), &probes_,
                                                   driver_config);
    rx_driver_ = std::make_unique<TokenRingDriver>(&rx_kernel_, rx_adapter_.get(), &probes_,
                                                   driver_config);
    CtmspConnectionConfig conn;
    conn.peer = rx_adapter_->address();
    transmitter_ = std::make_unique<CtmspTransmitter>(conn);
    receiver_ = std::make_unique<CtmspReceiver>(conn);
    VcaSourceDriver::Config source_config;
    source_ = std::make_unique<VcaSourceDriver>(&tx_kernel_, tx_driver_.get(), &probes_,
                                                transmitter_.get(), source_config);
    sink_ = std::make_unique<VcaSinkDriver>(&rx_kernel_, receiver_.get(),
                                            VcaSinkDriver::Config{});
    rx_driver_->SetCtmspInput([this](const Packet& packet, bool in_dma,
                                     std::function<void()> release) {
      sink_->OnCtmspDeliver(packet, in_dma, std::move(release));
    });
  }

  Simulation sim_;
  TokenRing ring_;
  Machine tx_machine_;
  Machine rx_machine_;
  UnixKernel tx_kernel_;
  UnixKernel rx_kernel_;
  ProbeBus probes_;
  std::unique_ptr<TokenRingAdapter> tx_adapter_;
  std::unique_ptr<TokenRingAdapter> rx_adapter_;
  std::unique_ptr<TokenRingDriver> tx_driver_;
  std::unique_ptr<TokenRingDriver> rx_driver_;
  std::unique_ptr<CtmspTransmitter> transmitter_;
  std::unique_ptr<CtmspReceiver> receiver_;
  std::unique_ptr<VcaSourceDriver> source_;
  std::unique_ptr<VcaSinkDriver> sink_;
};

TEST_F(DevFixture, VcaInterruptSourceIsSteady) {
  BuildCtmsPath(MemoryKind::kIoChannelMemory);
  GroundTruthRecorder truth(&probes_);
  source_->Start(VcaSourceDriver::OutputMode::kCtmspDirect, rx_adapter_->address());
  sim_.RunUntil(Seconds(1));
  source_->Stop();
  const std::vector<SimDuration> intervals =
      InterOccurrence(truth.events(), ProbePoint::kVcaIrq);
  ASSERT_GE(intervals.size(), 80u);
  for (const SimDuration interval : intervals) {
    // The paper bounds the hardware source at ~500 ns of wobble.
    EXPECT_NEAR(static_cast<double>(interval), static_cast<double>(Milliseconds(12)),
                static_cast<double>(Microseconds(1)));
  }
}

TEST_F(DevFixture, HandlerEntryToPreTransmitMatchesCopyPlusCode) {
  BuildCtmsPath(MemoryKind::kIoChannelMemory);
  GroundTruthRecorder truth(&probes_);
  source_->Start(VcaSourceDriver::OutputMode::kCtmspDirect, rx_adapter_->address());
  sim_.RunUntil(Milliseconds(200));
  source_->Stop();
  const std::vector<SimDuration> hist6 = MatchedDifference(
      truth.events(), ProbePoint::kVcaHandlerEntry, ProbePoint::kPreTransmit);
  ASSERT_GE(hist6.size(), 10u);
  for (const SimDuration v : hist6) {
    // build 250 + driver start 60 + copy 2000 (1 us/byte into IO Channel Memory).
    EXPECT_EQ(v, Microseconds(2310));
  }
}

TEST_F(DevFixture, TestCaseBCopyRaisesHandlerCostTo2600) {
  BuildCtmsPath(MemoryKind::kIoChannelMemory);
  GroundTruthRecorder truth(&probes_);
  // Enable the device-data copy (Test Case B's transmitter configuration).
  VcaSourceDriver::Config config;
  config.copy_device_data = true;
  source_ = std::make_unique<VcaSourceDriver>(&tx_kernel_, tx_driver_.get(), &probes_,
                                              transmitter_.get(), config);
  source_->Start(VcaSourceDriver::OutputMode::kCtmspDirect, rx_adapter_->address());
  sim_.RunUntil(Milliseconds(100));
  source_->Stop();
  const std::vector<SimDuration> hist6 = MatchedDifference(
      truth.events(), ProbePoint::kVcaHandlerEntry, ProbePoint::kPreTransmit);
  ASSERT_GE(hist6.size(), 5u);
  for (const SimDuration v : hist6) {
    // 2310 + 144 bytes of byte-wide PIO at 2 us/byte = 2598 — the paper's "2600 us" peak.
    EXPECT_EQ(v, Microseconds(2598));
  }
}

TEST_F(DevFixture, EndToEndFloorMatchesFigure53) {
  BuildCtmsPath(MemoryKind::kIoChannelMemory);
  GroundTruthRecorder truth(&probes_);
  source_->Start(VcaSourceDriver::OutputMode::kCtmspDirect, rx_adapter_->address());
  sim_.RunUntil(Milliseconds(500));
  source_->Stop();
  const std::vector<SimDuration> hist7 =
      MatchedDifference(truth.events(), ProbePoint::kPreTransmit, ProbePoint::kRxClassified);
  ASSERT_GE(hist7.size(), 20u);
  // In the fully quiet testbed every packet travels at the floor: tx command 25 + tx DMA
  // 3200 + token 20.5 + wire 4042 + rx DMA 3200 + dispatch 40 + entry 155 + classify 57
  // = 10739.5 us — the paper's Figure 5-3 minimum of 10740 us.
  for (const SimDuration v : hist7) {
    EXPECT_NEAR(static_cast<double>(v), static_cast<double>(Microseconds(10740)),
                static_cast<double>(Microseconds(5)));
  }
}

TEST_F(DevFixture, PacketsDeliverInOrderWithoutLoss) {
  BuildCtmsPath(MemoryKind::kIoChannelMemory);
  source_->Start(VcaSourceDriver::OutputMode::kCtmspDirect, rx_adapter_->address());
  sim_.RunUntil(Seconds(2));
  // Inspect playout health while the stream is still live (after it stops, the playout
  // clock legitimately runs the buffer dry).
  EXPECT_EQ(sink_->underruns(), 0u);
  source_->Stop();
  sink_->StopPlayout();
  sim_.RunUntil(Seconds(3));
  EXPECT_GE(receiver_->delivered(), 160u);
  EXPECT_EQ(receiver_->lost(), 0u);
  EXPECT_EQ(receiver_->out_of_order(), 0u);
  EXPECT_EQ(receiver_->duplicates(), 0u);
}

TEST_F(DevFixture, SystemMemoryDmaStretchesConcurrentCpuWork) {
  // While the adapter DMAs a packet out of a system-memory buffer, an unrelated interrupt
  // handler must run slower (the IOCC arbitration of section 4); with IO Channel Memory it
  // must not. Compare the same interrupt issued during the two kinds of DMA.
  BuildCtmsPath(MemoryKind::kSystemMemory);
  Packet packet;
  packet.protocol = ProtocolId::kCtmsp;
  packet.bytes = 2000;
  packet.seq = 1;
  packet.dst = rx_adapter_->address();
  tx_driver_->OutputCtmsp(packet);
  // The driver copy ends ~2510 us in (start 60 + copy 1600 at 0.8 us/B + probe/cmd); the
  // adapter tx DMA then runs for 3200 us. Fire a 100 us interrupt squarely inside it.
  Cpu::JobKind* probe_work = tx_machine_.cpu().Kind("probe-work");
  SimTime sysmem_done = -1;
  sim_.After(Milliseconds(3), [&]() {
    tx_machine_.cpu().SubmitInterrupt(probe_work, Spl::kClock, Microseconds(100),
                                      [&]() { sysmem_done = sim_.Now(); });
  });
  sim_.RunUntil(Milliseconds(20));
  ASSERT_GT(sysmem_done, 0);
  const SimDuration sysmem_elapsed = sysmem_done - Milliseconds(3);

  // Same experiment with IO Channel Memory buffers.
  BuildCtmsPath(MemoryKind::kIoChannelMemory);
  packet.dst = rx_adapter_->address();
  tx_driver_->OutputCtmsp(packet);
  SimTime iocm_done = -1;
  const SimTime start = sim_.Now();
  sim_.After(Milliseconds(4), [&]() {
    tx_machine_.cpu().SubmitInterrupt(probe_work, Spl::kClock, Microseconds(100),
                                      [&]() { iocm_done = sim_.Now(); });
  });
  sim_.RunUntil(start + Milliseconds(20));
  ASSERT_GT(iocm_done, 0);
  const SimDuration iocm_elapsed = iocm_done - (start + Milliseconds(4));
  EXPECT_GT(sysmem_elapsed, iocm_elapsed);
  EXPECT_EQ(iocm_elapsed, Microseconds(140));  // dispatch 40 + work 100, unstretched
}

TEST_F(DevFixture, StockQueueSharedWhenDriverPriorityOff) {
  tx_adapter_ = std::make_unique<TokenRingAdapter>(
      &tx_machine_, &ring_, QuietAdapterConfig(MemoryKind::kIoChannelMemory));
  TokenRingDriver::Config config = CtmsDriverConfig();
  config.driver_priority = false;
  tx_driver_ =
      std::make_unique<TokenRingDriver>(&tx_kernel_, tx_adapter_.get(), &probes_, config);
  Packet ip_packet;
  ip_packet.protocol = ProtocolId::kIp;
  ip_packet.bytes = 1000;
  ip_packet.dst = 99;
  Packet ctmsp_packet;
  ctmsp_packet.protocol = ProtocolId::kCtmsp;
  ctmsp_packet.bytes = 2000;
  ctmsp_packet.dst = 99;
  EXPECT_TRUE(tx_driver_->Output(ip_packet));
  EXPECT_TRUE(tx_driver_->OutputCtmsp(ctmsp_packet));
  // Both went into the shared if_snd queue (the first is immediately dequeued for service).
  EXPECT_EQ(tx_driver_->ctmsp_queue().enqueued_total(), 0u);
  EXPECT_EQ(tx_driver_->snd_queue().enqueued_total(), 2u);
}

TEST_F(DevFixture, DriverPriorityServesCtmspFirst) {
  BuildCtmsPath(MemoryKind::kIoChannelMemory);
  GroundTruthRecorder truth(&probes_);
  // Queue three IP packets, then one CTMSP packet. The first IP packet enters service
  // immediately; the CTMSP packet must transmit before IP packets 2 and 3.
  std::vector<std::string> tx_order;
  ring_.AddFrameMonitor([&](const Frame& frame, SimTime) {
    if (frame.kind == FrameKind::kLlc) {
      tx_order.push_back(std::string(ProtocolName(frame.protocol)));
    }
  });
  for (int i = 0; i < 3; ++i) {
    Packet ip_packet;
    ip_packet.protocol = ProtocolId::kIp;
    ip_packet.bytes = 1000;
    ip_packet.dst = 99;
    tx_driver_->Output(ip_packet);
  }
  Packet ctmsp_packet;
  ctmsp_packet.protocol = ProtocolId::kCtmsp;
  ctmsp_packet.bytes = 2000;
  ctmsp_packet.dst = rx_adapter_->address();
  ctmsp_packet.seq = 1;
  tx_driver_->OutputCtmsp(ctmsp_packet);
  sim_.RunUntil(Seconds(1));
  ASSERT_EQ(tx_order.size(), 4u);
  EXPECT_EQ(tx_order[0], "ip");
  EXPECT_EQ(tx_order[1], "ctmsp");
}

TEST_F(DevFixture, StrictSerializationSendsOnePacketCompletely) {
  BuildCtmsPath(MemoryKind::kIoChannelMemory);
  // Two CTMSP packets queued back-to-back: the second's wire appearance must come after
  // the first's full wire completion (order preserved without sequence reshuffling).
  std::vector<uint32_t> wire_order;
  ring_.AddFrameMonitor([&](const Frame& frame, SimTime) {
    if (frame.protocol == ProtocolId::kCtmsp) {
      wire_order.push_back(frame.seq);
    }
  });
  for (uint32_t seq = 1; seq <= 5; ++seq) {
    Packet packet;
    packet.protocol = ProtocolId::kCtmsp;
    packet.bytes = 2000;
    packet.seq = seq;
    packet.dst = rx_adapter_->address();
    tx_driver_->OutputCtmsp(packet);
  }
  sim_.RunUntil(Seconds(1));
  EXPECT_EQ(wire_order, (std::vector<uint32_t>{1, 2, 3, 4, 5}));
}

TEST_F(DevFixture, RxClassificationReleasesBufferAfterCopy) {
  BuildCtmsPath(MemoryKind::kIoChannelMemory, /*rx_copy_to_mbufs=*/true);
  source_->Start(VcaSourceDriver::OutputMode::kCtmspDirect, rx_adapter_->address());
  sim_.RunUntil(Seconds(1));
  source_->Stop();
  // No rx buffer leak: all host buffers free once traffic stops.
  sim_.RunUntil(Seconds(2));
  EXPECT_EQ(rx_adapter_->free_host_rx_buffers(), 2);
  EXPECT_EQ(rx_adapter_->rx_overruns(), 0u);
}

TEST_F(DevFixture, DirectDeliveryAvoidsDriverCopy) {
  BuildCtmsPath(MemoryKind::kIoChannelMemory, /*rx_copy_to_mbufs=*/false);
  source_->Start(VcaSourceDriver::OutputMode::kCtmspDirect, rx_adapter_->address());
  sim_.RunUntil(Seconds(1));
  source_->Stop();
  sim_.RunUntil(Seconds(2));
  // The receive machine made no driver CPU copies (the sink's device copy is separate and
  // disabled by default config here? copy_to_device defaults true -> count only driver).
  // rx driver copies would show as cpu copies with 2000-byte sizes beyond the sink's.
  EXPECT_GT(receiver_->delivered(), 70u);
  EXPECT_EQ(rx_adapter_->free_host_rx_buffers(), 2);
}

TEST_F(DevFixture, MbufExhaustionDropsAtSource) {
  // A tiny pool: the 12 ms stream needs 2 clusters per packet; give the kernel 1.
  UnixKernel::Config small;
  small.cluster_capacity = 1;
  UnixKernel tiny_kernel(&tx_machine_, small);
  BuildCtmsPath(MemoryKind::kIoChannelMemory);
  VcaSourceDriver source(&tiny_kernel, tx_driver_.get(), &probes_, transmitter_.get(),
                         VcaSourceDriver::Config{});
  source.Start(VcaSourceDriver::OutputMode::kCtmspDirect, rx_adapter_->address());
  sim_.RunUntil(Milliseconds(100));
  source.Stop();
  EXPECT_GT(source.mbuf_drops(), 0u);
  EXPECT_EQ(source.packets_built(), 0u);
}

TEST_F(DevFixture, SinkPlayoutUnderrunsWhenStreamStops) {
  BuildCtmsPath(MemoryKind::kIoChannelMemory);
  source_->Start(VcaSourceDriver::OutputMode::kCtmspDirect, rx_adapter_->address());
  sim_.RunUntil(Milliseconds(500));
  source_->Stop();  // feed dies; playout keeps consuming
  sim_.RunUntil(Milliseconds(700));
  EXPECT_GT(sink_->underruns(), 0u);
  sink_->StopPlayout();
}

TEST_F(DevFixture, PurgeDetectModeRetransmitsLostPacket) {
  BuildCtmsPath(MemoryKind::kIoChannelMemory);
  CtmspConnectionConfig conn;
  conn.peer = rx_adapter_->address();
  conn.retransmit_on_purge = true;
  transmitter_ = std::make_unique<CtmspTransmitter>(conn);
  source_ = std::make_unique<VcaSourceDriver>(&tx_kernel_, tx_driver_.get(), &probes_,
                                              transmitter_.get(), VcaSourceDriver::Config{});
  tx_driver_->SetCtmspTransmitNotify(
      [this](uint32_t seq, int64_t bytes) { transmitter_->RememberLast(seq, bytes); });
  tx_driver_->EnablePurgeDetect([this]() {
    auto retransmit = transmitter_->OnPurgeDetected();
    if (retransmit.has_value()) {
      tx_driver_->RetransmitCtmsp(retransmit->first, retransmit->second);
    }
  });
  source_->Start(VcaSourceDriver::OutputMode::kCtmspDirect, rx_adapter_->address());
  // Purge repeatedly while frames are in flight until one is hit.
  for (int i = 1; i <= 40; ++i) {
    sim_.After(i * Milliseconds(12) + Microseconds(7000), [this]() {
      ring_.TriggerRingPurge();
    });
  }
  sim_.RunUntil(Seconds(2));
  source_->Stop();
  sim_.RunUntil(Seconds(3));
  EXPECT_GT(ring_.frames_lost_to_purge(), 0u);
  EXPECT_GT(transmitter_->retransmissions(), 0u);
  // Retransmission closed the gaps: losses seen by the receiver are (nearly) zero.
  EXPECT_LT(receiver_->lost(), ring_.frames_lost_to_purge());
}

TEST_F(DevFixture, MacReceiveModeCostsInterrupts) {
  BuildCtmsPath(MemoryKind::kIoChannelMemory);
  rx_driver_->EnablePurgeDetect([]() {});
  for (int i = 0; i < 50; ++i) {
    sim_.After(i * Milliseconds(4), [this]() { ring_.TriggerRingPurge(); });
  }
  sim_.RunUntil(Seconds(1));
  EXPECT_GE(rx_driver_->mac_interrupts(), 50u);
}


TEST(WirePacketBytesTest, CompressionDividesAndVbrPatternAveragesOut) {
  VcaSourceDriver::Config config;
  config.packet_bytes = 2000;
  // No compression, no VBR: identity.
  EXPECT_EQ(VcaSourceDriver::WirePacketBytes(config, 1), 2000);
  // 4:1 compression.
  config.compression = VcaSourceDriver::CompressionSite::kDsp;
  config.compression_ratio = 4;
  EXPECT_EQ(VcaSourceDriver::WirePacketBytes(config, 1), 500);
  // VBR: key frames 3x, deltas shrunk, mean preserved.
  config.compression = VcaSourceDriver::CompressionSite::kNone;
  config.vbr = true;
  int64_t total = 0;
  for (uint32_t n = 1; n <= 100; ++n) {
    const int64_t bytes = VcaSourceDriver::WirePacketBytes(config, n);
    total += bytes;
    if (n % 10 == 0) {
      EXPECT_EQ(bytes, 6000);  // the key frame
    } else {
      EXPECT_LT(bytes, 2000);
    }
  }
  EXPECT_NEAR(static_cast<double>(total) / 100.0, 2000.0, 20.0);
}

TEST_F(DevFixture, HostCompressionCostsCpu) {
  BuildCtmsPath(MemoryKind::kIoChannelMemory);
  GroundTruthRecorder truth(&probes_);
  VcaSourceDriver::Config config;
  config.compression = VcaSourceDriver::CompressionSite::kHost;
  config.compression_ratio = 4;
  source_ = std::make_unique<VcaSourceDriver>(&tx_kernel_, tx_driver_.get(), &probes_,
                                              transmitter_.get(), config);
  source_->Start(VcaSourceDriver::OutputMode::kCtmspDirect, rx_adapter_->address());
  sim_.RunUntil(Milliseconds(200));
  source_->Stop();
  // hist6 = build 250 + software codec (2000 B x 1.5 us/B = 3000 us) + driver entry 60
  // + copy of the 500 compressed bytes (500 us).
  const std::vector<SimDuration> hist6 = MatchedDifference(
      truth.events(), ProbePoint::kVcaHandlerEntry, ProbePoint::kPreTransmit);
  ASSERT_GE(hist6.size(), 5u);
  EXPECT_EQ(hist6.front(), Microseconds(250 + 3000 + 60 + 500));
}

TEST_F(DevFixture, DspCompressionIsFreeOnTheHost) {
  BuildCtmsPath(MemoryKind::kIoChannelMemory);
  GroundTruthRecorder truth(&probes_);
  VcaSourceDriver::Config config;
  config.compression = VcaSourceDriver::CompressionSite::kDsp;
  config.compression_ratio = 4;
  source_ = std::make_unique<VcaSourceDriver>(&tx_kernel_, tx_driver_.get(), &probes_,
                                              transmitter_.get(), config);
  source_->Start(VcaSourceDriver::OutputMode::kCtmspDirect, rx_adapter_->address());
  sim_.RunUntil(Milliseconds(200));
  source_->Stop();
  // Same wire bytes, none of the codec CPU: build 250 + entry 60 + copy 500.
  const std::vector<SimDuration> hist6 = MatchedDifference(
      truth.events(), ProbePoint::kVcaHandlerEntry, ProbePoint::kPreTransmit);
  ASSERT_GE(hist6.size(), 5u);
  EXPECT_EQ(hist6.front(), Microseconds(250 + 60 + 500));
}

TEST_F(DevFixture, CtmspQueueOverflowDropsAndCounts) {
  BuildCtmsPath(MemoryKind::kIoChannelMemory);
  // Flood the priority queue far past its ifq limit while the adapter grinds.
  int accepted = 0;
  for (uint32_t seq = 1; seq <= 80; ++seq) {
    Packet packet;
    packet.protocol = ProtocolId::kCtmsp;
    packet.bytes = 2000;
    packet.seq = seq;
    packet.dst = rx_adapter_->address();
    if (tx_driver_->OutputCtmsp(packet)) {
      ++accepted;
    }
  }
  // 1 in service + 50 queued fit; the rest dropped.
  EXPECT_EQ(accepted, 51);
  EXPECT_EQ(tx_driver_->ctmsp_queue().drops(), 29u);
  sim_.RunUntil(Seconds(2));
  // Everything accepted eventually transmits, in order.
  EXPECT_EQ(tx_driver_->ctmsp_tx(), 51u);
}

TEST_F(DevFixture, VbrStreamPutsVariableFramesOnWire) {
  BuildCtmsPath(MemoryKind::kIoChannelMemory);
  VcaSourceDriver::Config config;
  config.vbr = true;
  source_ = std::make_unique<VcaSourceDriver>(&tx_kernel_, tx_driver_.get(), &probes_,
                                              transmitter_.get(), config);
  std::vector<int64_t> sizes;
  ring_.AddFrameMonitor([&](const Frame& frame, SimTime) {
    if (frame.protocol == ProtocolId::kCtmsp) {
      sizes.push_back(frame.payload_bytes);
    }
  });
  source_->Start(VcaSourceDriver::OutputMode::kCtmspDirect, rx_adapter_->address());
  sim_.RunUntil(Seconds(1));
  source_->Stop();
  ASSERT_GE(sizes.size(), 40u);
  const auto [min_it, max_it] = std::minmax_element(sizes.begin(), sizes.end());
  EXPECT_EQ(*max_it, 6000);
  EXPECT_LT(*min_it, 2000);
}

}  // namespace
}  // namespace ctms
