// FEC encode/repair microbenchmark for the CTMSP-2 recovery families.
//
// Two costs matter for sizing RecoveryConfig's parity_build_cost/parity_examine_cost:
//
//   1. The raw XOR: accumulating a k-packet parity on the transmit side and rebuilding the
//      missing member on the receive side, over real 2000-byte payloads. This is the
//      arithmetic the simulator's cost model stands in for, reported as ns/packet
//      (encode) and ns/group (repair).
//   2. The engine walk: driving RecoveryTx/RecoveryRx through a lossy stream — group
//      bookkeeping, seen-window updates, timer scheduling — reported as ns/packet of
//      bench wall-clock per simulated data packet, per group size.
//
// The hard failure is correctness, not speed: every XOR-reconstructed payload must equal
// the original byte for byte, and the engine sweep must repair exactly one loss per parity
// group (a drift here is a recovery bug, caught before any experiment trusts the numbers).
// Emits one JSON line per headline number; --json=PATH additionally writes them to PATH
// (CI saves it as BENCH_recovery.json). --smoke shrinks the packet counts so the run stays
// sub-second on a shared runner.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/kern/packet.h"
#include "src/proto/recovery.h"
#include "src/sim/simulation.h"

namespace ctms {
namespace {

constexpr int64_t kPayloadBytes = 2000;

// --- 1. raw XOR over real payloads ------------------------------------------------------

struct XorSample {
  double encode_ns_per_packet = 0.0;
  double repair_ns_per_group = 0.0;
  bool correct = true;
};

XorSample BenchXor(int group, int groups) {
  const size_t members_count = static_cast<size_t>(group);
  const size_t payload = static_cast<size_t>(kPayloadBytes);
  std::vector<std::vector<uint8_t>> members(members_count);
  for (size_t m = 0; m < members_count; ++m) {
    members[m].resize(payload);
    for (size_t b = 0; b < payload; ++b) {
      members[m][b] = static_cast<uint8_t>((m * 131 + b * 7) & 0xff);
    }
  }
  std::vector<uint8_t> parity(kPayloadBytes);
  std::vector<uint8_t> rebuilt(kPayloadBytes);
  XorSample sample;
  volatile uint8_t sink = 0;  // keep the XOR loops observable

  const auto encode_start = std::chrono::steady_clock::now();
  for (int g = 0; g < groups; ++g) {
    std::memset(parity.data(), 0, parity.size());
    for (size_t m = 0; m < members_count; ++m) {
      for (size_t b = 0; b < payload; ++b) {
        parity[b] ^= members[m][b];
      }
    }
    sink = static_cast<uint8_t>(sink ^ parity[0]);
  }
  const auto encode_stop = std::chrono::steady_clock::now();
  sample.encode_ns_per_packet =
      std::chrono::duration<double, std::nano>(encode_stop - encode_start).count() /
      (static_cast<double>(groups) * group);

  // Repair: the parity XOR the surviving members rebuilds the dropped one (member g%group,
  // rotating so every slot gets exercised).
  const auto repair_start = std::chrono::steady_clock::now();
  for (int g = 0; g < groups; ++g) {
    const size_t lost = static_cast<size_t>(g % group);
    std::memcpy(rebuilt.data(), parity.data(), parity.size());
    for (size_t m = 0; m < members_count; ++m) {
      if (m == lost) {
        continue;
      }
      for (size_t b = 0; b < payload; ++b) {
        rebuilt[b] ^= members[m][b];
      }
    }
    if (std::memcmp(rebuilt.data(), members[lost].data(), payload) != 0) {
      sample.correct = false;
    }
    sink = static_cast<uint8_t>(sink ^ rebuilt[0]);
  }
  const auto repair_stop = std::chrono::steady_clock::now();
  sample.repair_ns_per_group =
      std::chrono::duration<double, std::nano>(repair_stop - repair_start).count() /
      static_cast<double>(groups);
  (void)sink;
  return sample;
}

// --- 2. the engine walk ------------------------------------------------------------------

struct EngineSample {
  double ns_per_packet = 0.0;
  uint64_t repaired = 0;
  uint64_t expected = 0;
  int64_t parity_overhead_bytes = 0;
};

EngineSample BenchEngines(int group, uint32_t packets) {
  Simulation sim(1);
  RecoveryConfig config;
  config.mode = RecoveryMode::kFec;
  config.fec_group = group;
  RecoveryTx tx(&sim, "bench-tx", config);
  RecoveryRx rx(&sim, "bench-rx", config);
  uint64_t repairs = 0;
  rx.SetRepair([&](uint32_t, int64_t, SimTime) { ++repairs; });

  EngineSample sample;
  const SimDuration period = config.packet_period;
  const auto start = std::chrono::steady_clock::now();
  for (uint32_t seq = 1; seq <= packets; ++seq) {
    sim.RunUntil((seq - 1) * period);
    tx.OnDataSent(seq, kPayloadBytes);
    // Drop the second member of every group on the "wire": the parity must rebuild it.
    const bool dropped = group > 1 && (seq - 1) % static_cast<uint32_t>(group) == 1;
    if (dropped) {
      ++sample.expected;
    } else {
      Packet data;
      data.seq = seq;
      data.bytes = kPayloadBytes;
      data.created_at = sim.Now();
      rx.OnData(data);
    }
    if (tx.ParityDue(seq)) {
      const auto parity = tx.FinishGroup(seq);
      if (parity.has_value()) {
        Packet wire;
        wire.ctmsp_kind = kCtmspKindParity;
        wire.seq = seq;
        wire.fec_base = parity->base;
        wire.fec_mask = parity->mask;
        wire.bytes = parity->bytes;
        wire.created_at = sim.Now();
        rx.OnParity(wire);
      }
    }
  }
  sim.RunUntil(static_cast<SimTime>(packets + 2) * period);  // drain examine timers
  const auto stop = std::chrono::steady_clock::now();
  sample.ns_per_packet =
      std::chrono::duration<double, std::nano>(stop - start).count() /
      static_cast<double>(packets);
  sample.repaired = repairs;
  sample.parity_overhead_bytes = tx.parity_overhead_bytes();
  return sample;
}

}  // namespace
}  // namespace ctms

int main(int argc, char** argv) {
  using namespace ctms;
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json=PATH]\n", argv[0]);
      return 2;
    }
  }
  const int xor_groups = smoke ? 200 : 5000;
  const uint32_t engine_packets = smoke ? 4096 : 65536;

  std::string json;
  bool broken = false;
  auto emit = [&](const std::string& metric, double value) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "{\"bench\":\"recovery\",\"metric\":\"%s\",\"value\":%.1f}\n",
                  metric.c_str(), value);
    json += line;
  };

  PrintHeader("micro_recovery — FEC XOR arithmetic and recovery-engine walk");
  std::printf("  %-10s %18s %18s %16s %10s\n", "fec-group", "encode ns/pkt",
              "repair ns/group", "engine ns/pkt", "repaired");
  for (int group : {4, 8, 16}) {
    const XorSample xor_sample = BenchXor(group, xor_groups);
    const EngineSample engine = BenchEngines(group, engine_packets);
    std::printf("  %-10d %18.1f %18.1f %16.1f %10llu\n", group,
                xor_sample.encode_ns_per_packet, xor_sample.repair_ns_per_group,
                engine.ns_per_packet, static_cast<unsigned long long>(engine.repaired));
    if (!xor_sample.correct) {
      std::fprintf(stderr, "fec-group %d: XOR reconstruction mismatch\n", group);
      broken = true;
    }
    if (engine.repaired != engine.expected) {
      std::fprintf(stderr, "fec-group %d: engines repaired %llu of %llu injected losses\n",
                   group, static_cast<unsigned long long>(engine.repaired),
                   static_cast<unsigned long long>(engine.expected));
      broken = true;
    }
    if (engine.parity_overhead_bytes <= 0) {
      std::fprintf(stderr, "fec-group %d: no parity overhead accounted\n", group);
      broken = true;
    }
    const std::string prefix = "g" + std::to_string(group) + "_";
    emit(prefix + "encode_ns_per_packet", xor_sample.encode_ns_per_packet);
    emit(prefix + "repair_ns_per_group", xor_sample.repair_ns_per_group);
    emit(prefix + "engine_ns_per_packet", engine.ns_per_packet);
  }
  std::fputs(json.c_str(), stdout);
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  return broken ? 1 : 0;
}
