// CampaignRunner — fan a grid of ScenarioConfig runs across a WorkerPool, merge the
// results in job-submission order.
//
// Each worker owns one fully isolated testbed at a time (its own Simulation, RingTopology,
// telemetry registry, RNG); workers share nothing but the job queue cursor and their
// pre-sized result slots. The merge happens single-threaded after the pool's round returns,
// walking the records in submission (grid-expansion) order — never completion order — so
// the merged report is byte-identical whatever the worker count or the OS schedule:
// `--jobs=1` and `--jobs=8` must produce the same bytes, and tests compare them with
// string equality. Nothing thread-count- or wall-clock-dependent may enter a record or the
// merged output.

#ifndef SRC_CAMPAIGN_CAMPAIGN_H_
#define SRC_CAMPAIGN_CAMPAIGN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/campaign/grid.h"
#include "src/core/scenario_run.h"
#include "src/telemetry/json_export.h"

namespace ctms {

// One expanded grid point: submission index, axis label, and the fully resolved per-run
// config (experiment is the cell experiment, never "campaign").
struct CampaignJob {
  size_t index = 0;
  std::string label;
  ScenarioConfig config;
};

// What one run leaves behind under its grid label: RunScenario's result, snapshotted free
// of its Simulation so the worker tears the whole testbed down before the merge.
struct CampaignRunRecord : ScenarioRun {
  std::string label;
};

struct CampaignReport {
  std::string cell_experiment;
  std::string grid_spec;                // canonical respelling (CampaignGrid::Spec)
  std::vector<CampaignRunRecord> runs;  // always in job-submission order

  size_t HealthyCount() const;
  bool AllHealthy() const;

  // Human digest. Deterministic: never mentions jobs, threads, or timing.
  std::string Summary() const;

  // The merged JSON document: campaign header, per-stat aggregate percentiles, every run's
  // summary in submission order, and one combined registry with each run's metrics
  // namespaced under "run<index>.". Byte-identical for any worker count.
  std::string MergedJson() const;

  // Writes MergedJson to `path`. Returns false on I/O failure.
  bool WriteMergedJson(const std::string& path) const;

 private:
  std::vector<CampaignRunView> Views() const;
};

class CampaignRunner {
 public:
  struct Options {
    int64_t jobs = 1;
    // Salt each run's fault-RNG fork with its submission index so fault jitter decorrelates
    // across the grid (FaultPlan::set_rng_salt). Off by default: a campaign cell then sees
    // bit-identical faults to the same scenario run standalone.
    bool independent_faults = false;

    // --- test seams ------------------------------------------------------------------
    // Called on the owning worker thread just before job `index` runs; determinism tests
    // inject adversarial sleeps here to scramble completion order.
    std::function<void(size_t)> before_run;
    // Replaces the per-job experiment dispatch entirely (label is overwritten with the
    // job's label afterwards).
    std::function<CampaignRunRecord(const CampaignJob&)> run_job;
  };

  CampaignRunner(ScenarioConfig base, CampaignGrid grid, Options options);

  // Expands the grid into the job list, validates every cell against the shared flag
  // tables and loads the files it names (LoadScenarioFiles). Returns "" when ready to
  // Run(), else a one-line error.
  std::string Prepare();

  const std::vector<CampaignJob>& jobs() const { return jobs_; }

  // Runs every job — inline for jobs==1 (zero thread machinery), on a pool of
  // min(jobs, job count) workers otherwise — and returns the records merged in submission
  // order. Prepare() must have succeeded.
  CampaignReport Run();

 private:
  CampaignRunRecord RunOne(const CampaignJob& job);

  ScenarioConfig base_;
  CampaignGrid grid_;
  Options options_;
  std::vector<CampaignJob> jobs_;
  bool prepared_ = false;
};

// The default per-job dispatch: RunScenario(job.config) with no console, its result kept
// as the record. Exposed so tests can wrap it or call it directly.
CampaignRunRecord RunScenarioJob(const CampaignJob& job);

}  // namespace ctms

#endif  // SRC_CAMPAIGN_CAMPAIGN_H_
