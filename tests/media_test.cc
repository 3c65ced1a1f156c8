// Media-class / MediaSource tests: the class registry and --mix parsing, the VBR burst
// rate model, per-class QoE accounting through the mediamix experiment, the unified
// class.<name>.* report rows, the ring priority/reservation machinery the quality
// controller actuates, and the contract that matters most: the all-VCA workload is
// behaviourally identical to the legacy unclassed construction, and the quality-centric
// controller beats FIFO on aggregate distortion at the same offered load.

#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/campaign/grid.h"
#include "src/core/media_mix.h"
#include "src/core/multi_stream.h"
#include "src/core/report_stats.h"
#include "src/core/scenario_cli.h"
#include "src/core/scenario_run.h"
#include "src/dev/media_source.h"
#include "src/dev/vca.h"
#include "src/hw/machine.h"
#include "src/ring/adapter.h"
#include "src/ring/token_ring.h"
#include "src/sim/simulation.h"

namespace ctms {
namespace {

// --- registry and --mix parsing -----------------------------------------------------------

TEST(MediaClassTest, RegistryHasTheFourClasses) {
  const std::vector<MediaClass>& all = AllMediaClasses();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_TRUE(MediaClassByName("vca").has_value());
  EXPECT_TRUE(MediaClassByName("voice").has_value());
  EXPECT_TRUE(MediaClassByName("vbr").has_value());
  EXPECT_TRUE(MediaClassByName("bulk").has_value());
  EXPECT_FALSE(MediaClassByName("smellovision").has_value());
  EXPECT_EQ(MediaClassById(MediaClassId::kVoice).name, "voice");
  EXPECT_EQ(MediaClassById(MediaClassId::kNone).name, "");
}

TEST(MediaClassTest, ClassesCarryDistinctRateAndUtilityModels) {
  const MediaClass voice = *MediaClassByName("voice");
  EXPECT_EQ(voice.period, Milliseconds(20));
  EXPECT_GT(voice.deadline, 0);
  EXPECT_FALSE(voice.elastic);

  const MediaClass vbr = *MediaClassByName("vbr");
  EXPECT_TRUE(vbr.vbr);
  EXPECT_GT(vbr.vbr_burst_sigma, 0.0);

  const MediaClass bulk = *MediaClassByName("bulk");
  EXPECT_TRUE(bulk.elastic);
  EXPECT_EQ(bulk.deadline, 0);

  // The real-time acceptance mix (voice:8,vbr:4,bulk:2) must overload the 500 KB/s ring —
  // that is the regime where scheduling policy matters.
  const int64_t offered = 8 * voice.RateBytesPerSecond() + 4 * vbr.RateBytesPerSecond() +
                          2 * bulk.RateBytesPerSecond() +
                          MediaClassByName("vca")->RateBytesPerSecond() * 0;
  EXPECT_GT(offered, 500'000);
}

TEST(MediaClassTest, ParseMixSpecAcceptsCountsRatesAndPlusSeparator) {
  std::vector<WorkloadEntry> workload;
  std::string error;
  ASSERT_TRUE(ParseMixSpec("voice:8,vbr:4,bulk:2", &workload, &error)) << error;
  ASSERT_EQ(workload.size(), 3u);
  EXPECT_EQ(workload[0].media_class, "voice");
  EXPECT_EQ(workload[0].count, 8);
  EXPECT_EQ(workload[0].rate_kbps, 0);

  // '+' is the alternate separator for campaign grid axes (',' separates axis values).
  ASSERT_TRUE(ParseMixSpec("voice:2+bulk", &workload, &error)) << error;
  ASSERT_EQ(workload.size(), 2u);
  EXPECT_EQ(workload[1].media_class, "bulk");
  EXPECT_EQ(workload[1].count, 1);

  ASSERT_TRUE(ParseMixSpec("vca:2:100", &workload, &error)) << error;
  EXPECT_EQ(workload[0].rate_kbps, 100);
}

TEST(MediaClassTest, ParseMixSpecRejectsMalformedSpecs) {
  std::vector<WorkloadEntry> workload;
  std::string error;
  EXPECT_FALSE(ParseMixSpec("smellovision:2", &workload, &error));
  EXPECT_NE(error.find("unknown media class"), std::string::npos);
  EXPECT_NE(error.find("voice"), std::string::npos);  // lists the known names
  EXPECT_FALSE(ParseMixSpec("voice:0", &workload, &error));
  EXPECT_FALSE(ParseMixSpec("voice:65", &workload, &error));
  EXPECT_FALSE(ParseMixSpec("voice:2:0", &workload, &error));
  EXPECT_FALSE(ParseMixSpec("voice:2:x", &workload, &error));
  EXPECT_FALSE(ParseMixSpec("", &workload, &error));
  EXPECT_FALSE(ParseMixSpec("voice,,bulk", &workload, &error));
  EXPECT_FALSE(ParseMixSpec("voice:1:2:3", &workload, &error));
}

TEST(MediaClassTest, ResolveWorkloadExpandsCountsAndFoldsRates) {
  std::vector<WorkloadEntry> workload;
  std::string error;
  ASSERT_TRUE(ParseMixSpec("voice:3,vca:1:100", &workload, &error)) << error;
  const std::vector<MediaClass> classes = ResolveWorkload(workload);
  ASSERT_EQ(classes.size(), 4u);
  EXPECT_EQ(classes[0].name, "voice");
  EXPECT_EQ(classes[2].name, "voice");
  EXPECT_EQ(classes[3].name, "vca");
  // 100 KB/s at a 12 ms period = 1200 bytes per packet.
  EXPECT_EQ(classes[3].packet_bytes, 1200);
}

TEST(MediaClassTest, ScenarioCliValidatesAndThreadsTheMix) {
  ScenarioConfig cli;
  cli.mix = "voice:2,bulk:1";
  EXPECT_EQ(ValidateScenarioConfig(cli), "");
  const MultiStreamConfig multi = MultiStreamConfigFrom(cli);
  ASSERT_EQ(multi.workload.size(), 2u);
  const ServerConfig server = ServerConfigFrom(cli);
  EXPECT_EQ(server.workload.size(), 2u);
  const RouterConfig router = RouterConfigFrom(cli);
  ASSERT_TRUE(router.media_class.has_value());
  EXPECT_EQ(router.media_class->name, "voice");
  const MediaMixConfig mix = MediaMixConfigFrom(cli);
  EXPECT_EQ(mix.workload.size(), 2u);

  cli.mix = "smellovision";
  EXPECT_NE(ValidateScenarioConfig(cli), "");
  cli.mix = "";
  EXPECT_EQ(ValidateScenarioConfig(cli), "");
  EXPECT_TRUE(MultiStreamConfigFrom(cli).workload.empty());
}

TEST(MediaClassTest, GridMixAxisKeepsColonsLiteral) {
  // 'mix' values embed ':' for counts/rates; the grid must not read them as lo:hi ranges.
  std::string error;
  auto grid = CampaignGrid::Parse("mix=voice:2+bulk:1,voice:4+bulk:2", &error);
  ASSERT_TRUE(grid.has_value()) << error;
  const auto points = grid->Expand();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].assignments[0].second, "voice:2+bulk:1");
  EXPECT_EQ(points[1].assignments[0].second, "voice:4+bulk:2");
  // Numeric axes still reject range typos instead of silently taking them as literals.
  EXPECT_FALSE(CampaignGrid::Parse("seed=1:x8", &error).has_value());
}

// --- VBR burst rate model -----------------------------------------------------------------

TEST(MediaClassTest, VbrKeyFrameCadenceHoldsTheMean) {
  VcaSourceDriver::Config config;
  config.packet_bytes = 720;
  config.vbr = true;
  config.vbr_key_interval = 10;
  config.vbr_key_scale = 3.0;
  // Key frames 3x, delta frames shrink so one full cycle averages back to the mean.
  int64_t cycle = 0;
  for (uint32_t n = 0; n < 10; ++n) {
    cycle += VcaSourceDriver::WirePacketBytes(config, n);
  }
  EXPECT_NEAR(static_cast<double>(cycle) / 10.0, 720.0, 1.0);
  EXPECT_GT(VcaSourceDriver::WirePacketBytes(config, 0),
            2 * VcaSourceDriver::WirePacketBytes(config, 1));
}

TEST(MediaMixTest, VbrBurstModelIsMeanOneLognormal) {
  MediaMixConfig config;
  config.workload = {{"vbr", 1, 0}};
  config.duration = Seconds(10);
  MediaMixExperiment experiment(config);
  const MediaMixReport report = experiment.Run();
  ASSERT_EQ(experiment.stream_count(), 1u);
  const MediaSourceStats stats = experiment.endpoints(0).source().SourceStats();
  ASSERT_GT(stats.packets, 500u);
  // The lognormal burst factor is mean-one by construction, so the long-run mean byte
  // rate must stay at the descriptor's 720 B/packet despite per-packet variance.
  const double mean = static_cast<double>(stats.bytes) / static_cast<double>(stats.packets);
  EXPECT_NEAR(mean, 720.0, 720.0 * 0.05);
  // And it must actually burst: a quiet single-stream ring still sees byte spread.
  EXPECT_TRUE(report.Healthy()) << report.Summary();
}

// --- ring priority machinery (the controller's actuator) ----------------------------------

TEST(TokenRingPriorityTest, HighPriorityArrivalReservesAgainstInFlightFrame) {
  Simulation sim(1);
  TokenRing ring(&sim);
  std::vector<int> order;
  auto frame = [&](RingAddress src, int priority, uint32_t seq) {
    Frame f;
    f.kind = FrameKind::kLlc;
    f.src = src;
    f.dst = 99;
    f.payload_bytes = 1000;
    f.priority = priority;
    f.seq = seq;
    f.protocol = ProtocolId::kCtmsp;
    return f;
  };
  ring.RequestTransmit(frame(1, 0, 1), [&](TxStatus) { order.push_back(1); });
  ring.RequestTransmit(frame(1, 0, 2), [&](TxStatus) { order.push_back(2); });
  // While frame 1 occupies the wire, a priority-6 arrival must stamp its reservation into
  // the in-flight frame and pass the queued priority-0 frame — 802.5's reservation bits.
  sim.After(Microseconds(50), [&]() {
    ring.RequestTransmit(frame(2, 6, 3), [&](TxStatus) { order.push_back(3); });
  });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(ring.reservations(), 1u);
  EXPECT_EQ(ring.priority_preemptions(), 1u);
}

TEST(TokenRingPriorityTest, AdapterAccessPriorityFloorRaisesLlcFrames) {
  Simulation sim(1);
  TokenRing ring(&sim);
  Machine tx_machine(&sim, "tx");
  Machine rx_machine(&sim, "rx");
  TokenRingAdapter tx(&tx_machine, &ring, TokenRingAdapter::Config{});
  TokenRingAdapter rx(&rx_machine, &ring, TokenRingAdapter::Config{});
  std::vector<int> priorities;
  rx.SetReceiveHandler([&](const Frame& f) {
    priorities.push_back(f.priority);
    rx.ReleaseRxBuffer();
  });

  auto send = [&](int priority) {
    Frame f;
    f.kind = FrameKind::kLlc;
    f.dst = rx.address();
    f.payload_bytes = 100;
    f.priority = priority;
    f.protocol = ProtocolId::kCtmsp;
    tx.IssueTransmit(f, nullptr);
    sim.RunAll();
  };
  send(0);
  tx.set_access_priority_floor(4);
  EXPECT_EQ(tx.access_priority_floor(), 4);
  send(0);  // raised to the floor
  send(6);  // already above: never lowered
  ASSERT_EQ(priorities.size(), 3u);
  EXPECT_EQ(priorities[0], 0);
  EXPECT_EQ(priorities[1], 4);
  EXPECT_EQ(priorities[2], 6);
}

// --- per-class QoE accounting -------------------------------------------------------------

TEST(MediaMixTest, QuietRingVoiceHasCleanQoE) {
  MediaMixConfig config;
  config.workload = {{"voice", 2, 0}};
  config.duration = Seconds(5);
  MediaMixExperiment experiment(config);
  const MediaMixReport report = experiment.Run();
  EXPECT_TRUE(report.Healthy()) << report.Summary();
  ASSERT_EQ(report.classes.size(), 1u);
  const MediaMixClassQoE& voice = report.classes[0];
  EXPECT_EQ(voice.name, "voice");
  EXPECT_EQ(voice.streams, 2);
  EXPECT_EQ(voice.deadline_misses, 0u) << report.Summary();
  EXPECT_EQ(voice.lost, 0u);
  EXPECT_EQ(voice.distortion, 0.0);
  EXPECT_EQ(voice.starvation_time, 0);
}

TEST(MediaMixTest, SummaryStatsUseUnifiedClassKeys) {
  MediaMixConfig config;
  config.workload = {{"voice", 1, 0}, {"bulk", 1, 0}};
  config.duration = Seconds(2);
  MediaMixExperiment experiment(config);
  const StatList stats = SummaryStats(experiment.Run());
  auto has = [&](const std::string& key) {
    return std::any_of(stats.begin(), stats.end(),
                       [&](const auto& kv) { return kv.first == key; });
  };
  EXPECT_TRUE(has("aggregate_distortion"));
  EXPECT_TRUE(has("ring_priority_preemptions"));
  for (const std::string name : {"voice", "bulk"}) {
    EXPECT_TRUE(has("class." + name + ".built"));
    EXPECT_TRUE(has("class." + name + ".deadline_miss_rate"));
    EXPECT_TRUE(has("class." + name + ".distortion"));
    EXPECT_TRUE(has("class." + name + ".starvation_ms"));
    EXPECT_TRUE(has("class." + name + ".mean_latency_us"));
  }
}

TEST(MultiStreamTest, ClassedWorkloadAppendsClassRowsAfterLegacyKeys) {
  MultiStreamConfig config;
  config.workload = {{"voice", 1, 0}};
  config.duration = Seconds(2);
  MultiStreamExperiment experiment(config);
  const MultiStreamReport report = experiment.Run();
  ASSERT_EQ(report.streams.size(), 1u);
  EXPECT_EQ(report.streams[0].media_class, "voice");
  const StatList stats = SummaryStats(report);
  // Legacy keys stay first and unchanged; class rows follow.
  EXPECT_EQ(stats[0].first, "streams");
  EXPECT_TRUE(std::any_of(stats.begin(), stats.end(), [](const auto& kv) {
    return kv.first == "class.voice.delivered";
  }));
}

// --- ClassRows: the one definition of a class row ------------------------------------------

TEST(ClassRowsTest, SkipsUnclassedStreamsAndKeepsFirstAppearanceOrder) {
  auto stream = [](const std::string& media_class, uint64_t built, SimDuration mean) {
    StreamStats stats;
    stats.media_class = media_class;
    stats.built = built;
    stats.delivered = built;
    stats.deadline_misses = 1;
    stats.queue_drops = 2;
    stats.mbuf_drops = 3;
    stats.starvation_time = Milliseconds(5);
    stats.mean_latency = mean;
    stats.max_latency = mean * 2;
    return stats;
  };
  EXPECT_TRUE(ClassRows({stream("", 10, 1)}).empty());
  const std::vector<ClassQoE> rows = ClassRows(
      {stream("vbr", 10, 100), stream("", 99, 1), stream("voice", 4, 50), stream("vbr", 30, 300)});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "vbr");
  EXPECT_EQ(rows[0].streams, 2);
  EXPECT_EQ(rows[0].built, 40u);
  EXPECT_EQ(rows[0].queue_drops, 10u);  // queue + mbuf drops of both streams
  EXPECT_EQ(rows[0].starvation_time, Milliseconds(10));
  EXPECT_DOUBLE_EQ(rows[0].deadline_miss_rate, 2.0 / 40.0);
  EXPECT_EQ(rows[0].mean_latency, 200);  // mean of the per-stream means
  EXPECT_EQ(rows[0].max_latency, 600);
  EXPECT_EQ(rows[0].ring_priority, -1);
  EXPECT_EQ(rows[1].name, "voice");
  EXPECT_EQ(rows[1].streams, 1);
}

// Every classed experiment's class.<name>.queue_drops is its streams' source drops and its
// starvation_ms is its sinks' starvation, so each must equal the stations' own counters.
TEST(ClassRowsTest, ClassRowsMatchStationCounters) {
  struct Case {
    std::vector<std::string> flags;
    // class name -> regex over counter names selecting that class's source drop counters
    std::vector<std::pair<std::string, std::string>> source_drops;
  };
  const std::string drops = R"(\.(mbuf|queue)_drops$)";
  const std::vector<Case> cases = {
      {{"experiment=multistream", "mix=vca:4", "duration=30"},
       {{"vca", R"(^driver\.vca\.tx\d+)" + drops}}},
      {{"experiment=server", "mix=vbr:6", "duration=10"},
       {{"vbr", R"(^driver\.media\.server\.movie\d+)" + drops}}},
      {{"experiment=router", "mix=vbr", "chain-hops=3", "duration=5"},
       {{"vbr", R"(^driver\.vca\.src)" + drops}}},
      // Four shards; flow f (on shard f) gets class f mod 2.
      {{"experiment=fabric", "mix=voice:2,vbr:2", "duration=5"},
       {{"voice", R"(^shard[02]\.driver\.vca\.src)" + drops},
        {"vbr", R"(^shard[13]\.driver\.vca\.src)" + drops}}},
      {{"experiment=mediamix", "mix=voice:8,vbr:4,bulk:2", "duration=10"},
       {{"voice", R"(^driver\.vca\.tx_voice\d+)" + drops},
        {"vbr", R"(^driver\.vca\.tx_vbr\d+)" + drops},
        {"bulk", R"(^driver\.vca\.tx_bulk\d+)" + drops}}},
  };
  for (const Case& c : cases) {
    ScenarioConfig config;
    for (const std::string& flag : c.flags) {
      const size_t eq = flag.find('=');
      ASSERT_TRUE(ApplyScenarioAxis(&config, flag.substr(0, eq), flag.substr(eq + 1), nullptr));
    }
    ASSERT_EQ(ValidateScenarioConfig(config), "");
    const ScenarioRun run = RunScenario(config, nullptr);
    auto stat = [&](const std::string& key) {
      for (const auto& [name, value] : run.info.stats) {
        if (name == key) {
          return value;
        }
      }
      ADD_FAILURE() << config.experiment << ": no stat " << key;
      return -1.0;
    };
    auto counter_sum = [&](const std::string& pattern) {
      const std::regex re(pattern);
      uint64_t sum = 0;
      for (const auto& [name, counter] : run.metrics->counters()) {
        if (std::regex_search(name, re)) {
          sum += counter.value();
        }
      }
      return sum;
    };
    double starved_ms = 0.0;
    for (const auto& [name, pattern] : c.source_drops) {
      SCOPED_TRACE(config.experiment + " class " + name);
      EXPECT_EQ(stat("class." + name + ".queue_drops"),
                static_cast<double>(counter_sum(pattern)));
      const double starvation_ms =
          static_cast<double>(counter_sum(R"((^|\.)qoe\.)" + name + R"(\.[^.]+\.starvation_ns$)")) /
          1e6;
      EXPECT_NEAR(stat("class." + name + ".starvation_ms"), starvation_ms, 1e-6);
      starved_ms += starvation_ms;
    }
    EXPECT_GT(starved_ms, 0.0) << config.experiment << ": the run must exercise starvation";
  }
}

// --- equivalence: the redesigned source layer does not disturb legacy behaviour -----------

TEST(MultiStreamTest, AllVcaWorkloadMatchesLegacyConstructionExactly) {
  MultiStreamConfig legacy;
  legacy.streams = 2;
  legacy.duration = Seconds(5);
  MultiStreamExperiment legacy_experiment(legacy);
  const MultiStreamReport legacy_report = legacy_experiment.Run();

  // The vca class descriptor is the paper's stream: same 2000 B / 12 ms rate model, no
  // burstiness. Routing it through the MediaSource path must reproduce the legacy run's
  // delivery behaviour event for event (the class adds accounting, not behaviour).
  MultiStreamConfig classed;
  classed.workload = {{"vca", 2, 0}};
  classed.duration = Seconds(5);
  MultiStreamExperiment classed_experiment(classed);
  const MultiStreamReport classed_report = classed_experiment.Run();

  ASSERT_EQ(classed_report.streams.size(), legacy_report.streams.size());
  for (size_t i = 0; i < legacy_report.streams.size(); ++i) {
    const StreamStats& a = legacy_report.streams[i];
    const StreamStats& b = classed_report.streams[i];
    EXPECT_EQ(a.built, b.built) << "stream " << i;
    EXPECT_EQ(a.delivered, b.delivered) << "stream " << i;
    EXPECT_EQ(a.lost, b.lost) << "stream " << i;
    EXPECT_EQ(a.underruns, b.underruns) << "stream " << i;
    EXPECT_EQ(a.mean_latency, b.mean_latency) << "stream " << i;
    EXPECT_EQ(a.max_latency, b.max_latency) << "stream " << i;
  }
  EXPECT_EQ(classed_report.streams[0].media_class, "vca");
  EXPECT_TRUE(legacy_report.streams[0].media_class.empty());
}

// --- the tentpole claim: quality-centric control beats FIFO under overload ----------------

MediaMixReport RunAcceptanceMix(bool controller) {
  std::vector<WorkloadEntry> workload;
  std::string error;
  EXPECT_TRUE(ParseMixSpec("voice:8,vbr:4,bulk:2", &workload, &error)) << error;
  MediaMixConfig config;
  config.workload = workload;
  config.quality_controller = controller;
  config.duration = Seconds(8);
  MediaMixExperiment experiment(config);
  return experiment.Run();
}

TEST(MediaMixTest, ControllerReducesAggregateDistortionVsFifo) {
  const MediaMixReport fifo = RunAcceptanceMix(false);
  const MediaMixReport controlled = RunAcceptanceMix(true);
  // The mix oversubscribes the ring, so FIFO must hurt the real-time classes.
  EXPECT_GT(fifo.aggregate_distortion, 0.0) << fifo.Summary();
  EXPECT_GT(controlled.controller_epochs, 0u);
  EXPECT_GT(controlled.controller_updates, 0u);
  // Same offered load, same seed: mapping class utility onto the 802.5 priorities must
  // strictly reduce the class-weighted distortion total.
  EXPECT_LT(controlled.aggregate_distortion, fifo.aggregate_distortion)
      << "fifo:\n" << fifo.Summary() << "controlled:\n" << controlled.Summary();
  // The elastic bulk class absorbs the overload instead of the real-time classes: bulk is
  // parked at the elastic priority and combined real-time (voice+vbr) distortion drops.
  const auto qoe = [](const MediaMixReport& report, const std::string& name) {
    for (const MediaMixClassQoE& c : report.classes) {
      if (c.name == name) return c;
    }
    return MediaMixClassQoE{};
  };
  EXPECT_EQ(qoe(controlled, "bulk").ring_priority, 0) << controlled.Summary();
  EXPECT_LT(qoe(controlled, "voice").distortion + qoe(controlled, "vbr").distortion,
            qoe(fifo, "voice").distortion + qoe(fifo, "vbr").distortion)
      << "fifo:\n" << fifo.Summary() << "controlled:\n" << controlled.Summary();
}

// --- campaign determinism with mediamix cells ---------------------------------------------

std::string MediaMixMergedJson(int64_t jobs) {
  ScenarioConfig base;
  base.experiment = "campaign";
  base.cell_experiment = "mediamix";
  base.mix = "voice:2+vbr:1+bulk:1";
  base.duration_s = 1;
  CampaignRunner::Options options;
  options.jobs = jobs;
  std::string error;
  auto grid = CampaignGrid::Parse("seed=1:4", &error);
  EXPECT_TRUE(grid.has_value()) << error;
  CampaignRunner runner(base, std::move(*grid), std::move(options));
  EXPECT_EQ(runner.Prepare(), "");
  return runner.Run().MergedJson();
}

TEST(MediaMixTest, CampaignCellsMergeBitIdenticallyAcrossJobCounts) {
  const std::string jobs1 = MediaMixMergedJson(1);
  const std::string jobs4 = MediaMixMergedJson(4);
  EXPECT_EQ(jobs1, jobs4);
  EXPECT_NE(jobs1.find("class.voice.deadline_miss_rate"), std::string::npos);
  EXPECT_NE(jobs1.find("mediamix-fifo"), std::string::npos);
}

}  // namespace
}  // namespace ctms
