#include "src/core/scenario_cli.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

namespace ctms {

namespace {

// ---------------------------------------------------------------------------------------
// Table-driven flag surface (moved here from tools/ctms_sim.cc so the campaign grid can
// sweep any flag). Three tables describe every axis: presence/bool flags, value flags that
// fill a ScenarioConfig member, and post-parse validations. Adding a flag is one table row.

struct BoolFlag {
  const char* name;
  bool ScenarioConfig::*field;
  bool presence_value;  // what bare `--flag` (no value) sets the field to
};

constexpr BoolFlag kBoolFlags[] = {
    {"tcp", &ScenarioConfig::tcp, true},
    {"no-driver-priority", &ScenarioConfig::driver_priority, false},
    {"driver-priority", &ScenarioConfig::driver_priority, true},
    {"zero-copy", &ScenarioConfig::zero_copy, true},
    {"retransmit", &ScenarioConfig::retransmit, true},
    {"ground-truth", &ScenarioConfig::ground_truth_output, true},
    {"print-metrics", &ScenarioConfig::print_metrics, true},
    {"independent-faults", &ScenarioConfig::independent_faults, true},
    {"quality-controller", &ScenarioConfig::quality_controller, true},
    {"no-quality-controller", &ScenarioConfig::quality_controller, false},
    {"journeys", &ScenarioConfig::journeys, true},
    {"stage-histograms", &ScenarioConfig::stage_histograms, true},
};

using ValueTarget = std::variant<std::string ScenarioConfig::*, int64_t ScenarioConfig::*,
                                 uint64_t ScenarioConfig::*, int ScenarioConfig::*>;

struct ValueFlag {
  const char* name;
  ValueTarget target;
  bool require_nonempty;  // reject `--flag=` when the value is mandatory
};

constexpr ValueFlag kValueFlags[] = {
    {"experiment", &ScenarioConfig::experiment, true},
    {"scenario", &ScenarioConfig::scenario, true},
    {"duration", &ScenarioConfig::duration_s, false},
    {"seed", &ScenarioConfig::seed, false},
    {"packet-bytes", &ScenarioConfig::packet_bytes, false},
    {"period-ms", &ScenarioConfig::period_ms, false},
    {"streams", &ScenarioConfig::streams, false},
    {"clients", &ScenarioConfig::clients, false},
    {"chain-hops", &ScenarioConfig::chain_hops, false},
    {"mix", &ScenarioConfig::mix, true},
    {"controller-epoch-ms", &ScenarioConfig::controller_epoch_ms, false},
    {"rings", &ScenarioConfig::rings, false},
    {"stations-per-ring", &ScenarioConfig::stations_per_ring, false},
    {"fabric-topology", &ScenarioConfig::fabric_topology, true},
    {"link-latency-us", &ScenarioConfig::link_latency_us, false},
    {"memory", &ScenarioConfig::memory, true},
    {"method", &ScenarioConfig::method, true},
    {"ring-priority", &ScenarioConfig::ring_priority, false},
    {"insertions", &ScenarioConfig::insertion_mean_min, false},
    {"faults", &ScenarioConfig::faults_path, true},
    {"degradation", &ScenarioConfig::degradation, true},
    {"retry-budget", &ScenarioConfig::retry_budget, false},
    {"retry-backoff-ms", &ScenarioConfig::retry_backoff_ms, false},
    {"recovery", &ScenarioConfig::recovery, true},
    {"fec-group", &ScenarioConfig::fec_group, false},
    {"nack-delay-us", &ScenarioConfig::nack_delay_us, false},
    {"sweep-levels", &ScenarioConfig::sweep_levels, false},
    {"sweep-purges", &ScenarioConfig::sweep_purges, false},
    {"sweep-spacing-ms", &ScenarioConfig::sweep_spacing_ms, false},
    {"jobs", &ScenarioConfig::jobs, false},
    {"grid", &ScenarioConfig::grid_spec, true},
    {"cell-experiment", &ScenarioConfig::cell_experiment, true},
    {"histogram", &ScenarioConfig::histogram, false},
    {"bin-us", &ScenarioConfig::bin_us, false},
    {"csv-prefix", &ScenarioConfig::csv_prefix, false},
    {"trace", &ScenarioConfig::trace_path, false},
    {"metrics-json", &ScenarioConfig::metrics_json, true},
    {"trace-json", &ScenarioConfig::trace_json, true},
    {"flight-recorder", &ScenarioConfig::flight_recorder, false},
    {"journey-json", &ScenarioConfig::journey_json, true},
};
static_assert(std::size(kValueFlags) <= 64, "ScenarioConfig::given_value_flags has 64 bits");

// The bit ApplyScenarioAxis sets in ScenarioConfig::given_value_flags when it applies the
// value flag `name`. consteval, so a name missing from kValueFlags fails to compile.
consteval uint64_t ValueFlagBit(std::string_view name) {
  for (size_t i = 0; i < std::size(kValueFlags); ++i) {
    if (name == kValueFlags[i].name) {
      return uint64_t{1} << i;
    }
  }
  throw "not a value flag";
}

constexpr uint64_t kBinUsGiven = ValueFlagBit("bin-us");
constexpr uint64_t kFlightRecorderGiven = ValueFlagBit("flight-recorder");

void StoreValue(ScenarioConfig* options, const ValueTarget& target, const std::string& value) {
  std::visit(
      [&](auto member) {
        using Field = std::remove_reference_t<decltype(options->*member)>;
        if constexpr (std::is_same_v<Field, std::string>) {
          options->*member = value;
        } else {
          options->*member = static_cast<Field>(std::atoll(value.c_str()));
        }
      },
      target);
}

// The one experiment registry. Both --experiment and --cell-experiment validate against
// this table (they used to carry hand-copied lists that had already drifted); `cell` marks
// the experiments a campaign grid cell may run — everything but the campaign driver itself,
// whose nesting the campaign rejects with its own message.
struct ExperimentEntry {
  const char* name;
  bool cell;
};

constexpr ExperimentEntry kExperiments[] = {
    {"ctms", true},        {"baseline", true}, {"multistream", true},
    {"server", true},      {"router", true},   {"faultsweep", true},
    {"fabric", true},      {"mediamix", true}, {"campaign", false},
};

std::vector<const char*> ExperimentNames(bool cell_only) {
  std::vector<const char*> names;
  for (const ExperimentEntry& entry : kExperiments) {
    if (!cell_only || entry.cell) {
      names.push_back(entry.name);
    }
  }
  return names;
}

// A string flag restricted to an enumerated set of spellings.
struct ChoiceCheck {
  const char* name;
  std::string ScenarioConfig::*field;
  std::vector<const char*> allowed;
};

const std::vector<ChoiceCheck>& ChoiceChecks() {
  static const std::vector<ChoiceCheck> checks = {
      {"experiment", &ScenarioConfig::experiment, ExperimentNames(/*cell_only=*/false)},
      {"cell-experiment", &ScenarioConfig::cell_experiment,
       ExperimentNames(/*cell_only=*/true)},
      {"scenario", &ScenarioConfig::scenario, {"A", "B"}},
      {"memory", &ScenarioConfig::memory, {"iocm", "system"}},
      {"method", &ScenarioConfig::method, {"pcat", "rtpc", "logic", "truth"}},
      {"fabric-topology",
       &ScenarioConfig::fabric_topology,
       {"chain", "star", "ring-of-rings"}},
      {"degradation",
       &ScenarioConfig::degradation,
       {"drop", "drop-oldest", "block", "retransmit", "purge-retransmit"}},
  };
  return checks;
}

// A numeric flag with an inclusive valid range.
struct RangeCheck {
  const char* name;
  std::variant<int64_t ScenarioConfig::*, int ScenarioConfig::*> field;
  int64_t min;
  int64_t max;
  const char* message;
};

const RangeCheck kRangeChecks[] = {
    {"duration", &ScenarioConfig::duration_s, 1, INT64_MAX,
     "--duration must be a positive number of seconds"},
    {"packet-bytes", &ScenarioConfig::packet_bytes, 1, INT64_MAX,
     "--packet-bytes must be positive"},
    {"period-ms", &ScenarioConfig::period_ms, 1, INT64_MAX, "--period-ms must be positive"},
    {"streams", &ScenarioConfig::streams, 1, 16, "--streams must be between 1 and 16"},
    {"clients", &ScenarioConfig::clients, 1, 16, "--clients must be between 1 and 16"},
    {"retry-budget", &ScenarioConfig::retry_budget, 0, 1000,
     "--retry-budget must be between 0 and 1000"},
    {"retry-backoff-ms", &ScenarioConfig::retry_backoff_ms, 0, INT64_MAX,
     "--retry-backoff-ms must be non-negative"},
    {"sweep-levels", &ScenarioConfig::sweep_levels, 1, 16,
     "--sweep-levels must be between 1 and 16"},
    {"sweep-purges", &ScenarioConfig::sweep_purges, 1, 1000,
     "--sweep-purges must be between 1 and 1000"},
    {"sweep-spacing-ms", &ScenarioConfig::sweep_spacing_ms, 1, INT64_MAX,
     "--sweep-spacing-ms must be positive"},
    {"fec-group", &ScenarioConfig::fec_group, 1, 32,
     "--fec-group must be between 1 and 32 (the parity coverage mask is 32 bits)"},
    {"nack-delay-us", &ScenarioConfig::nack_delay_us, 0, INT64_MAX,
     "--nack-delay-us must be non-negative"},
    {"jobs", &ScenarioConfig::jobs, 1, 64, "--jobs must be between 1 and 64"},
    {"chain-hops", &ScenarioConfig::chain_hops, 1, 8,
     "--chain-hops must be between 1 and 8"},
    {"rings", &ScenarioConfig::rings, 1, 64, "--rings must be between 1 and 64"},
    {"stations-per-ring", &ScenarioConfig::stations_per_ring, 2, 4096,
     "--stations-per-ring must be between 2 and 4096"},
    {"link-latency-us", &ScenarioConfig::link_latency_us, 1, INT64_MAX,
     "--link-latency-us must be positive (it is the fabric lookahead window)"},
    {"histogram", &ScenarioConfig::histogram, 0, 7,
     "--histogram must be between 1 and 7, or 0 for none"},
    {"flight-recorder", &ScenarioConfig::flight_recorder, 1, 1'000'000,
     "--flight-recorder must be between 1 and 1000000"},
    {"controller-epoch-ms", &ScenarioConfig::controller_epoch_ms, 1, 60'000,
     "--controller-epoch-ms must be between 1 and 60000"},
};

// An output or observability flag and the experiments that honour it: the flag changes
// their stdout, metrics JSON or written files. `by_cell` marks the flags that travel into
// campaign cells and change what a cell records. A flag that only modifies another output
// names it in `needs` and tests for it with `needs_met`; alone it would change nothing.
struct OutputFlagRule {
  const char* name;
  bool (*set)(const ScenarioConfig&);
  std::vector<const char*> honoured_by;
  bool by_cell;
  const char* needs = nullptr;
  bool (*needs_met)(const ScenarioConfig&) = nullptr;
};

const std::vector<OutputFlagRule>& OutputFlagRules() {
  using C = const ScenarioConfig&;
  static const std::vector<OutputFlagRule> rules = {
      {"trace", [](C c) { return !c.trace_path.empty(); }, {"ctms"}, true},
      {"journeys", [](C c) { return c.journeys; }, {"ctms", "fabric"}, true},
      {"histogram", [](C c) { return c.histogram != 0; }, {"ctms"}, false},
      {"bin-us", [](C c) { return (c.given_value_flags & kBinUsGiven) != 0; }, {"ctms"}, false,
       "--histogram", [](C c) { return c.histogram != 0; }},
      {"ground-truth", [](C c) { return c.ground_truth_output; }, {"ctms"}, false,
       "--histogram or --csv-prefix",
       [](C c) { return c.histogram != 0 || !c.csv_prefix.empty(); }},
      {"csv-prefix", [](C c) { return !c.csv_prefix.empty(); }, {"ctms", "baseline"}, false},
      {"journey-json", [](C c) { return !c.journey_json.empty(); }, {"ctms"}, false,
       "--journeys", [](C c) { return c.journeys; }},
      {"stage-histograms", [](C c) { return c.stage_histograms; }, {"ctms"}, false,
       "--journeys", [](C c) { return c.journeys; }},
      {"flight-recorder",
       [](C c) { return (c.given_value_flags & kFlightRecorderGiven) != 0; },
       {"ctms"},
       false,
       "--journeys",
       [](C c) { return c.journeys; }},
      {"trace-json",
       [](C c) { return !c.trace_json.empty(); },
       {"ctms", "baseline", "multistream", "server", "router", "mediamix"},
       false},
      {"print-metrics",
       [](C c) { return c.print_metrics; },
       {"ctms", "baseline", "multistream", "server", "router", "mediamix", "fabric"},
       false},
  };
  return rules;
}

std::string Join(const std::vector<const char*>& names, const char* separator) {
  std::string joined;
  for (const char* name : names) {
    joined += (joined.empty() ? "" : separator) + std::string(name);
  }
  return joined;
}

// Splits a --recovery spelling into its family tokens. The flag accepts a list ("resend,
// fec") so the faultsweep can run several families in one invocation, and '+' doubles as
// the separator inside campaign grid axes (where ',' already splits grid values).
std::vector<std::string> SplitRecoverySpec(const std::string& spec) {
  std::vector<std::string> tokens;
  std::string current;
  for (const char c : spec) {
    if (c == ',' || c == '+') {
      tokens.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  tokens.push_back(current);
  return tokens;
}

}  // namespace

bool ApplyScenarioAxis(ScenarioConfig* config, const std::string& name,
                       const std::string& value, std::string* error) {
  for (const ValueFlag& flag : kValueFlags) {
    if (name != flag.name) {
      continue;
    }
    if (flag.require_nonempty && value.empty()) {
      if (error != nullptr) {
        *error = "--" + name + " requires a value";
      }
      return false;
    }
    StoreValue(config, flag.target, value);
    config->given_value_flags |= uint64_t{1} << (&flag - kValueFlags);
    return true;
  }
  for (const BoolFlag& flag : kBoolFlags) {
    if (name != flag.name) {
      continue;
    }
    bool parsed = false;
    if (value == "1" || value == "true") {
      parsed = true;
    } else if (value != "0" && value != "false") {
      if (error != nullptr) {
        *error = "--" + name + " takes 0/1/true/false, got \"" + value + "\"";
      }
      return false;
    }
    // The table stores what *presence* sets the field to; value 1 means "as if the flag
    // were present", 0 the opposite — so a "no-" spelling inverts naturally.
    config->*flag.field = parsed ? flag.presence_value : !flag.presence_value;
    return true;
  }
  if (error != nullptr) {
    *error = "unknown flag --" + name;
  }
  return false;
}

bool ApplyScenarioPresenceFlag(ScenarioConfig* config, const std::string& name) {
  for (const BoolFlag& flag : kBoolFlags) {
    if (name == flag.name) {
      config->*flag.field = flag.presence_value;
      return true;
    }
  }
  return false;
}

std::string ValidateScenarioConfig(const ScenarioConfig& config) {
  for (const ChoiceCheck& check : ChoiceChecks()) {
    const std::string& value = config.*check.field;
    if (std::none_of(check.allowed.begin(), check.allowed.end(),
                     [&](const char* allowed) { return value == allowed; })) {
      return "unknown --" + std::string(check.name) + "=" + value + " (expected " +
             Join(check.allowed, " or ") + ")";
    }
  }
  for (const RangeCheck& check : kRangeChecks) {
    const int64_t value = std::visit(
        [&](auto member) { return static_cast<int64_t>(config.*member); }, check.field);
    if (value < check.min || value > check.max) {
      return check.message;
    }
  }
  // --recovery is a list flag (faultsweep runs every named family), so it validates here
  // instead of through ChoiceChecks, which only knows single spellings.
  for (const std::string& token : SplitRecoverySpec(config.recovery)) {
    if (!ParseRecoveryMode(token).has_value()) {
      return "unknown --recovery=" + token + " (expected none or resend or fec or hybrid)";
    }
  }
  if (!config.mix.empty()) {
    std::vector<WorkloadEntry> workload;
    std::string error;
    if (!ParseMixSpec(config.mix, &workload, &error)) {
      return error;
    }
  }
  // Output and observability flags an experiment does not honour would otherwise be
  // accepted and dropped. A campaign honours none of them itself (its cells print and write
  // nothing); the ones that change what a cell records are judged by the cell experiment.
  for (const OutputFlagRule& rule : OutputFlagRules()) {
    const bool by_cell = rule.by_cell && config.experiment == "campaign";
    const std::string& experiment = by_cell ? config.cell_experiment : config.experiment;
    if (!rule.set(config)) {
      continue;
    }
    if (std::none_of(rule.honoured_by.begin(), rule.honoured_by.end(),
                     [&](const char* name) { return experiment == name; })) {
      return "--" + std::string(rule.name) + " is not honoured by " +
             (by_cell ? "--cell-experiment=" : "--experiment=") + experiment + " (only by " +
             Join(rule.honoured_by, ", ") + ")";
    }
    if (rule.needs != nullptr && !rule.needs_met(config)) {
      return "--" + std::string(rule.name) + " has no effect without " + rule.needs;
    }
  }
  return "";
}

std::vector<WorkloadEntry> ScenarioWorkload(const ScenarioConfig& cli) {
  std::vector<WorkloadEntry> workload;
  if (!cli.mix.empty()) {
    std::string error;
    ParseMixSpec(cli.mix, &workload, &error);
  }
  return workload;
}

MemoryKind ScenarioConfig::MemoryKindValue() const {
  return memory == "system" ? MemoryKind::kSystemMemory : MemoryKind::kIoChannelMemory;
}

MeasurementMethod ScenarioConfig::MethodValue() const {
  if (method == "rtpc") {
    return MeasurementMethod::kRtPcPseudoDevice;
  }
  if (method == "logic") {
    return MeasurementMethod::kLogicAnalyzer;
  }
  if (method == "truth") {
    return MeasurementMethod::kGroundTruth;
  }
  return MeasurementMethod::kPcAt;
}

DegradationMode ScenarioConfig::DegradationValue() const {
  return ParseDegradationMode(degradation).value_or(DegradationMode::kDropOldest);
}

std::vector<RecoveryMode> ScenarioConfig::RecoveryValues() const {
  std::vector<RecoveryMode> modes;
  for (const std::string& token : SplitRecoverySpec(recovery)) {
    const auto parsed = ParseRecoveryMode(token);
    if (parsed.has_value()) {
      modes.push_back(*parsed);
    }
  }
  if (modes.empty()) {
    modes.push_back(RecoveryMode::kNone);
  }
  return modes;
}

CtmsConfig CtmsConfigFrom(const ScenarioConfig& cli) {
  CtmsConfig config = cli.scenario == "B" ? TestCaseB() : TestCaseA();
  config.duration = Seconds(cli.duration_s);
  config.seed = cli.seed;
  config.packet_bytes = cli.packet_bytes;
  config.packet_period = Milliseconds(cli.period_ms);
  config.dma_buffer_kind = cli.MemoryKindValue();
  config.driver_priority = cli.driver_priority;
  config.ring_priority = cli.ring_priority;
  config.tx_zero_copy = cli.zero_copy;
  config.retransmit_on_purge = cli.retransmit;
  config.insertion_mean = Minutes(cli.insertion_mean_min);
  config.method = cli.MethodValue();
  config.degradation = cli.DegradationValue();
  config.retry_budget = cli.retry_budget;
  config.retry_backoff = Milliseconds(cli.retry_backoff_ms);
  // Single-mode experiments take the first --recovery entry; the faultsweep converter
  // below re-reads the full list as its own axis.
  config.recovery = cli.RecoveryValues().front();
  config.fec_group = static_cast<int>(cli.fec_group);
  config.nack_delay = Microseconds(cli.nack_delay_us);
  config.faults = cli.faults;
  config.journeys = cli.journeys;
  config.flight_recorder = cli.flight_recorder;
  config.stage_histograms = cli.stage_histograms;
  return config;
}

BaselineConfig BaselineConfigFrom(const ScenarioConfig& cli) {
  BaselineConfig config;
  config.packet_bytes = cli.packet_bytes;
  config.packet_period = Milliseconds(cli.period_ms);
  config.use_tcp = cli.tcp;
  config.duration = Seconds(cli.duration_s);
  config.seed = cli.seed;
  config.dma_buffer_kind = cli.MemoryKindValue();
  config.faults = cli.faults;
  return config;
}

MultiStreamConfig MultiStreamConfigFrom(const ScenarioConfig& cli) {
  MultiStreamConfig config;
  config.streams = static_cast<int>(cli.streams);
  config.packet_bytes = cli.packet_bytes;
  config.packet_period = Milliseconds(cli.period_ms);
  config.workload = ScenarioWorkload(cli);  // non-empty overrides the legacy knobs above
  config.dma_buffer_kind = cli.MemoryKindValue();
  config.ring_priority = cli.ring_priority;
  config.duration = Seconds(cli.duration_s);
  config.seed = cli.seed;
  config.faults = cli.faults;
  return config;
}

ServerConfig ServerConfigFrom(const ScenarioConfig& cli) {
  ServerConfig config;
  config.clients = static_cast<int>(cli.clients);
  config.packet_bytes = cli.packet_bytes;
  config.packet_period = Milliseconds(cli.period_ms);
  config.workload = ScenarioWorkload(cli);  // non-empty overrides the legacy knobs above
  config.dma_buffer_kind = cli.MemoryKindValue();
  config.duration = Seconds(cli.duration_s);
  config.seed = cli.seed;
  config.faults = cli.faults;
  return config;
}

RouterConfig RouterConfigFrom(const ScenarioConfig& cli) {
  RouterConfig config;
  config.packet_bytes = cli.packet_bytes;
  config.packet_period = Milliseconds(cli.period_ms);
  // The router carries one connection; a --mix gives it the first entry's class.
  const std::vector<WorkloadEntry> workload = ScenarioWorkload(cli);
  if (!workload.empty()) {
    const std::vector<MediaClass> classes = ResolveWorkload(workload);
    if (!classes.empty()) {
      config.media_class = classes.front();
    }
  }
  config.dma_buffer_kind = cli.MemoryKindValue();
  config.forward_via_mbufs = !cli.zero_copy;  // --zero-copy selects zero-copy forwarding
  config.chain_hops = cli.chain_hops;
  config.duration = Seconds(cli.duration_s);
  config.seed = cli.seed;
  config.faults = cli.faults;
  return config;
}

FabricConfig FabricConfigFrom(const ScenarioConfig& cli) {
  FabricConfig config;
  config.rings = cli.rings;
  config.stations_per_ring = cli.stations_per_ring;
  config.topology =
      ParseFabricTopology(cli.fabric_topology).value_or(FabricTopology::kRingOfRings);
  config.link_latency = Microseconds(cli.link_latency_us);
  config.jobs = cli.jobs;
  config.packet_bytes = cli.packet_bytes;
  config.packet_period = Milliseconds(cli.period_ms);
  config.workload = ScenarioWorkload(cli);  // classes round-robin over the per-shard flows
  config.dma_buffer_kind = cli.MemoryKindValue();
  config.journeys = cli.journeys;
  config.duration = Seconds(cli.duration_s);
  config.seed = cli.seed;
  config.faults = cli.faults;
  return config;
}

MediaMixConfig MediaMixConfigFrom(const ScenarioConfig& cli) {
  MediaMixConfig config;
  config.workload = ScenarioWorkload(cli);  // empty = the experiment's moderate default mix
  config.quality_controller = cli.quality_controller;
  config.controller_epoch = Milliseconds(cli.controller_epoch_ms);
  config.ring_priority = cli.ring_priority;
  config.dma_buffer_kind = cli.MemoryKindValue();
  config.duration = Seconds(cli.duration_s);
  config.seed = cli.seed;
  config.faults = cli.faults;
  return config;
}

FaultSweepConfig FaultSweepConfigFrom(const ScenarioConfig& cli) {
  FaultSweepConfig config;
  config.base = CtmsConfigFrom(cli);
  // The sweep owns the faults and policy axes; a --faults plan or --degradation choice
  // would otherwise leak into every cell.
  config.base.faults = FaultPlan();
  config.base.degradation = DegradationMode::kDropOldest;
  config.base.recovery = RecoveryMode::kNone;  // the sweep owns the recovery axis too
  config.recoveries = cli.RecoveryValues();
  config.levels = static_cast<int>(cli.sweep_levels);
  config.purges_per_storm = static_cast<int>(cli.sweep_purges);
  config.purge_spacing = Milliseconds(cli.sweep_spacing_ms);
  config.jobs = static_cast<int>(cli.jobs);
  return config;
}

}  // namespace ctms
