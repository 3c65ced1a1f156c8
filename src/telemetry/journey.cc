#include "src/telemetry/journey.h"

#include <cinttypes>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <utility>

namespace ctms {

namespace {

constexpr const char* kStageNames[kJourneyStageCount] = {
    "source_irq", "mbuf_alloc",  "ifq_enqueue",  "ifq_dequeue", "driver_tx_start",
    "adapter_dma", "ring_transit", "rx_interrupt", "rx_classify", "delivery",
};

constexpr const char* kAnomalyNames[kJourneyAnomalyCount] = {
    "deadline_miss",
    "drop",
    "retransmit",
    "reorder_evict",
};

// Log2 bucket index for a non-negative delta: 0 holds exact zeros, bucket k holds
// [2^(k-1), 2^k) ns.
int HistogramBucket(SimDuration delta) {
  int bucket = 0;
  uint64_t v = static_cast<uint64_t>(delta);
  while (v != 0) {
    v >>= 1;
    ++bucket;
  }
  return bucket;
}

double Micros(double ns) { return ns / 1000.0; }

}  // namespace

const char* JourneyStageName(JourneyStage stage) {
  return kStageNames[static_cast<int>(stage)];
}

const char* JourneyAnomalyName(JourneyAnomaly anomaly) {
  return kAnomalyNames[static_cast<int>(anomaly)];
}

void JourneyRecorder::Enable() {
  if (enabled_ || metrics_ == nullptr) {
    enabled_ = metrics_ != nullptr;
    return;
  }
  enabled_ = true;
  begun_counter_ = metrics_->GetCounter("journey.begun");
  completed_counter_ = metrics_->GetCounter("journey.completed");
  aborted_counter_ = metrics_->GetCounter("journey.aborted");
  evicted_counter_ = metrics_->GetCounter("journey.active_evicted");
  e2e_summary_ = metrics_->GetSummary("journey.e2e");
  for (size_t s = 0; s < kJourneyStageCount; ++s) {
    stage_summaries_[s] = metrics_->GetSummary(std::string("journey.stage.") + kStageNames[s]);
  }
  for (size_t a = 0; a < kJourneyAnomalyCount; ++a) {
    anomaly_counters_[a] =
        metrics_->GetCounter(std::string("journey.anomaly.") + kAnomalyNames[a]);
  }
}

uint64_t JourneyRecorder::Begin(uint32_t seq, SimTime at) {
  if (!enabled_) {
    return 0;
  }
  if (active_.size() >= kMaxActive) {
    // A packet lost somewhere without an Abort hook (e.g. swallowed by a modeled hardware
    // fault) would otherwise pin its record forever; drop the oldest instead.
    active_.erase(active_.begin());
    evicted_counter_->Increment();
  }
  const uint64_t id = next_id_++;
  JourneyRecord& record = active_[id];
  record.id = id;
  record.seq = seq;
  record.stamps[static_cast<size_t>(JourneyStage::kSourceIrq)] = at;
  begun_counter_->Increment();
  return id;
}

void JourneyRecorder::Stamp(uint64_t id, JourneyStage stage, SimTime at) {
  if (!enabled_ || id == 0) {
    return;
  }
  auto it = active_.find(id);
  if (it == active_.end()) {
    return;
  }
  it->second.stamps[static_cast<size_t>(stage)] = at;
}

void JourneyRecorder::FoldStages(const JourneyRecord& record) {
  SimTime prev = kJourneyUnstamped;
  for (size_t s = 0; s < kJourneyStageCount; ++s) {
    const SimTime stamp = record.stamps[s];
    if (stamp == kJourneyUnstamped) {
      continue;
    }
    // The first stamped stage (birth) is the reference point: delta 0 keeps its row in the
    // breakdown so the table covers every stage the packet touched.
    const SimDuration delta = prev == kJourneyUnstamped ? 0 : stamp - prev;
    stage_summaries_[s]->Observe(delta);
    if (stage_histograms_) {
      ++histograms_[s][static_cast<size_t>(HistogramBucket(delta < 0 ? 0 : delta))];
    }
    prev = stamp;
  }
  const SimTime birth = record.stamps[static_cast<size_t>(JourneyStage::kSourceIrq)];
  const SimTime end = record.stamps[static_cast<size_t>(JourneyStage::kDelivery)];
  if (record.complete && birth != kJourneyUnstamped && end != kJourneyUnstamped) {
    e2e_summary_->Observe(end - birth);
  }
}

void JourneyRecorder::CountAnomaly(JourneyAnomaly why) {
  ++anomaly_counts_[static_cast<size_t>(why)];
  anomaly_counters_[static_cast<size_t>(why)]->Increment();
  anomaly_fired_ = true;
}

void JourneyRecorder::Finish(uint64_t id, SimTime at, bool complete, int anomaly) {
  auto it = active_.find(id);
  if (it == active_.end()) {
    return;
  }
  JourneyRecord record = std::move(it->second);
  active_.erase(it);
  record.complete = complete;
  if (complete) {
    record.stamps[static_cast<size_t>(JourneyStage::kDelivery)] = at;
    ++completed_;
    completed_counter_->Increment();
    const SimTime birth = record.stamps[static_cast<size_t>(JourneyStage::kSourceIrq)];
    if (deadline_ > 0 && birth != kJourneyUnstamped && at - birth > deadline_) {
      anomaly = static_cast<int>(JourneyAnomaly::kDeadlineMiss);
    }
  } else {
    ++aborted_;
    aborted_counter_->Increment();
  }
  if (anomaly >= 0) {
    record.anomaly = anomaly;
    CountAnomaly(static_cast<JourneyAnomaly>(anomaly));
  }
  FoldStages(record);
  flight_.push_back(std::move(record));
  while (flight_.size() > flight_capacity_) {
    // Evict the oldest clean journey first so anomalous ones survive until the
    // post-mortem dump, no matter how much healthy traffic followed them.
    auto victim = flight_.begin();
    for (auto candidate = flight_.begin(); candidate != flight_.end(); ++candidate) {
      if (candidate->anomaly < 0) {
        victim = candidate;
        break;
      }
    }
    flight_.erase(victim);
  }
}

void JourneyRecorder::Complete(uint64_t id, SimTime at) {
  if (!enabled_ || id == 0) {
    return;
  }
  Finish(id, at, /*complete=*/true, /*anomaly=*/-1);
}

void JourneyRecorder::Abort(uint64_t id, JourneyAnomaly why, SimTime at) {
  if (!enabled_ || id == 0) {
    return;
  }
  Finish(id, at, /*complete=*/false, static_cast<int>(why));
}

void JourneyRecorder::NoteAnomaly(JourneyAnomaly why, SimTime) {
  if (!enabled_) {
    return;
  }
  CountAnomaly(why);
}

std::optional<JourneyRecord> JourneyRecorder::Detach(uint64_t id) {
  if (!enabled_ || id == 0) {
    return std::nullopt;
  }
  auto it = active_.find(id);
  if (it == active_.end()) {
    return std::nullopt;
  }
  JourneyRecord record = std::move(it->second);
  active_.erase(it);
  return record;
}

uint64_t JourneyRecorder::Adopt(JourneyRecord record, SimTime at) {
  if (!enabled_) {
    return 0;
  }
  if (active_.size() >= kMaxActive) {
    active_.erase(active_.begin());
    evicted_counter_->Increment();
  }
  const uint64_t id = next_id_++;
  record.id = id;
  ++record.hops;
  record.stamps[static_cast<size_t>(JourneyStage::kRingTransit)] = at;
  active_[id] = std::move(record);
  // Counted as begun here too: per-recorder begun/completed stay balanced, and the fabric
  // report subtracts hop adoptions when it wants the true packet count.
  begun_counter_->Increment();
  return id;
}

std::string JourneyRecorder::StageBreakdown() const {
  std::ostringstream os;
  os << "journey stage breakdown: begun " << begun() << ", completed " << completed_
     << ", aborted " << aborted_ << ", in-flight " << active_.size() << "\n";
  os << "  " << std::left << std::setw(16) << "stage" << std::right << std::setw(8)
     << "count" << std::setw(14) << "mean(us)" << std::setw(14) << "min(us)"
     << std::setw(14) << "max(us)" << "\n";
  os << std::fixed << std::setprecision(3);
  const auto row = [&](const char* name, const Summary* summary) {
    if (summary == nullptr) {
      return;
    }
    os << "  " << std::left << std::setw(16) << name << std::right << std::setw(8)
       << summary->count() << std::setw(14) << Micros(summary->Mean()) << std::setw(14)
       << Micros(static_cast<double>(summary->count() == 0 ? 0 : summary->min()))
       << std::setw(14)
       << Micros(static_cast<double>(summary->count() == 0 ? 0 : summary->max())) << "\n";
  };
  for (size_t s = 0; s < kJourneyStageCount; ++s) {
    row(kStageNames[s], stage_summaries_[s]);
  }
  row("e2e", e2e_summary_);
  os << "  anomalies:";
  for (size_t a = 0; a < kJourneyAnomalyCount; ++a) {
    os << " " << kAnomalyNames[a] << " " << anomaly_counts_[a]
       << (a + 1 < kJourneyAnomalyCount ? "," : "\n");
  }
  if (stage_histograms_) {
    os << "  per-stage delta histograms (log2 ns buckets):\n";
    for (size_t s = 0; s < kJourneyStageCount; ++s) {
      bool any = false;
      for (size_t b = 0; b < kHistogramBuckets; ++b) {
        any = any || histograms_[s][b] != 0;
      }
      if (!any) {
        continue;
      }
      os << "    " << kStageNames[s] << ":";
      for (size_t b = 0; b < kHistogramBuckets; ++b) {
        if (histograms_[s][b] != 0) {
          os << " [2^" << b << ")=" << histograms_[s][b];
        }
      }
      os << "\n";
    }
  }
  return os.str();
}

std::string JourneyRecorder::FlightJson() const {
  std::ostringstream os;
  os << "{\n\"journeys\": [";
  for (size_t i = 0; i < flight_.size(); ++i) {
    const JourneyRecord& record = flight_[i];
    os << (i > 0 ? "," : "") << "\n{\"id\": " << record.id << ", \"seq\": " << record.seq
       << ", \"complete\": " << (record.complete ? "true" : "false") << ", \"anomaly\": ";
    if (record.anomaly >= 0) {
      os << "\"" << kAnomalyNames[record.anomaly] << "\"";
    } else {
      os << "null";
    }
    if (record.hops > 0 || record.origin_shard >= 0) {
      os << ", \"hops\": " << record.hops << ", \"origin_shard\": " << record.origin_shard;
    }
    os << ", \"stages\": {";
    bool first = true;
    for (size_t s = 0; s < kJourneyStageCount; ++s) {
      if (record.stamps[s] == kJourneyUnstamped) {
        continue;
      }
      os << (first ? "" : ", ") << "\"" << kStageNames[s] << "\": " << record.stamps[s];
      first = false;
    }
    os << "}}";
  }
  os << "\n],\n\"counts\": {\"begun\": " << begun() << ", \"completed\": " << completed_
     << ", \"aborted\": " << aborted_ << ", \"in_flight\": " << active_.size() << "},\n";
  os << "\"anomalies\": {";
  for (size_t a = 0; a < kJourneyAnomalyCount; ++a) {
    os << (a > 0 ? ", " : "") << "\"" << kAnomalyNames[a] << "\": " << anomaly_counts_[a];
  }
  os << "}\n}\n";
  return os.str();
}

void JourneyRecorder::DumpToTracer() {
  if (tracer_ == nullptr || !tracer_->enabled()) {
    return;
  }
  for (const JourneyRecord& record : flight_) {
    const TrackId track = tracer_->RegisterTrack("journey." + std::to_string(record.id));
    SimTime prev = kJourneyUnstamped;
    for (size_t s = 0; s < kJourneyStageCount; ++s) {
      const SimTime stamp = record.stamps[s];
      if (stamp == kJourneyUnstamped) {
        continue;
      }
      if (prev == kJourneyUnstamped) {
        tracer_->AddInstant(track, kStageNames[s], stamp,
                            {{"seq", static_cast<int64_t>(record.seq)}});
      } else {
        tracer_->AddComplete(track, kStageNames[s], prev, stamp - prev,
                             {{"seq", static_cast<int64_t>(record.seq)}});
      }
      prev = stamp;
    }
    if (record.anomaly >= 0 && prev != kJourneyUnstamped) {
      tracer_->AddInstant(track, std::string("anomaly:") + kAnomalyNames[record.anomaly],
                          prev);
    }
  }
}

bool WriteJourneyJson(const JourneyRecorder& recorder, const std::string& path) {
  const std::string text = recorder.FlightJson();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), file);
  const bool ok = written == text.size() && std::fclose(file) == 0;
  if (!ok && written != text.size()) {
    std::fclose(file);
  }
  return ok;
}

}  // namespace ctms
