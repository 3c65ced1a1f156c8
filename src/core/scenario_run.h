// RunScenario — the one path from a validated ScenarioConfig to a finished run.
//
// ctms_sim runs every experiment through it, and every campaign cell is the same call with
// no console and its output fields cleared (CampaignRunner::Prepare), so a cell and the
// standalone tool cannot drift: the scenario labels, the health verdicts, fault-report
// attachment and the metrics snapshot are each written here once.

#ifndef SRC_CORE_SCENARIO_RUN_H_
#define SRC_CORE_SCENARIO_RUN_H_

#include <memory>
#include <ostream>
#include <string>

#include "src/core/scenario_cli.h"
#include "src/telemetry/json_export.h"
#include "src/telemetry/metrics.h"

namespace ctms {

struct ScenarioRun {
  RunSummaryInfo info;  // label, duration, seed, summary stats and fault report
  // The run's registry, cut loose from the simulations that produced it: fabric merges its
  // shards under "shard<i>.", and a faultsweep (many simulations) leaves it empty.
  std::unique_ptr<MetricsRegistry> metrics;
  bool healthy = false;     // the experiment's verdict (ctms_sim exits 2 when false)
  bool outputs_ok = true;   // false when a requested file could not be written
};

// Reads the files a validated config names: the --faults plan into `faults` (a config
// without a path keeps the plan it carries) and the --trace CSV into `trace` (cleared
// without a path). Returns an empty string on success, else a one-line error.
std::string LoadScenarioFiles(ScenarioConfig* config);

// Builds config.experiment (never "campaign") through its *ConfigFrom converter, runs it,
// and renders what the config asks for. With a console, prints Summary() followed by the
// experiment's extras (trace-replay line, ASCII histogram, CSV and journey notes, counter
// dump, "wrote FILE" lines) and, when journeys record an anomaly with no --journey-json
// path, writes the flight_recorder.json post-mortem. A null console prints nothing and
// writes only the files the config names. The config must have passed
// ValidateScenarioConfig and LoadScenarioFiles.
ScenarioRun RunScenario(const ScenarioConfig& config, std::ostream* console);

}  // namespace ctms

#endif  // SRC_CORE_SCENARIO_RUN_H_
