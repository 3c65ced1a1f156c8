#include "src/campaign/campaign.h"

#include <algorithm>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <utility>

#include "src/sim/worker_pool.h"

namespace ctms {

CampaignRunRecord RunScenarioJob(const CampaignJob& job) {
  return {RunScenario(job.config, /*console=*/nullptr), job.label};
}

CampaignRunner::CampaignRunner(ScenarioConfig base, CampaignGrid grid, Options options)
    : base_(std::move(base)), grid_(std::move(grid)), options_(std::move(options)) {}

std::string CampaignRunner::Prepare() {
  jobs_.clear();
  prepared_ = false;
  if (options_.jobs < 1) {
    return "--jobs must be at least 1";
  }
  const std::vector<CampaignGrid::Point> points = grid_.Expand();
  jobs_.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    CampaignJob job;
    job.index = i;
    job.label = points[i].Label();
    ScenarioConfig cell = base_;
    cell.experiment = base_.cell_experiment;
    cell.grid_spec.clear();
    cell.jobs = 1;
    // Output belongs to the campaign, rendered once from the merged report: a cell is the
    // standalone RunScenario with no console and these fields cleared, so it never prints
    // or writes files (workers would race on the same paths).
    cell.histogram = 0;
    cell.csv_prefix.clear();
    cell.metrics_json.clear();
    cell.trace_json.clear();
    cell.journey_json.clear();
    cell.print_metrics = false;
    for (const auto& [name, value] : points[i].assignments) {
      // Neither the campaign's own shape nor its output is sweepable from inside itself.
      constexpr const char* kCampaignAxes[] = {
          "experiment", "grid",         "jobs",       "cell-experiment", "histogram",
          "csv-prefix", "metrics-json", "trace-json", "journey-json",    "print-metrics"};
      if (std::any_of(std::begin(kCampaignAxes), std::end(kCampaignAxes),
                      [&](const char* axis) { return name == axis; })) {
        return "grid axis '" + name + "' cannot be swept inside a campaign";
      }
      std::string error;
      if (!ApplyScenarioAxis(&cell, name, value, &error)) {
        return "grid point " + job.label + ": " + error;
      }
    }
    std::string error = ValidateScenarioConfig(cell);
    if (error.empty()) {
      error = LoadScenarioFiles(&cell);
    }
    if (!error.empty()) {
      return "grid point " + job.label + ": " + error;
    }
    if (options_.independent_faults) {
      // Submission index + 1: salt 0 means "no salt" to the injector fork.
      cell.faults.set_rng_salt(static_cast<uint64_t>(i) + 1);
    }
    job.config = std::move(cell);
    jobs_.push_back(std::move(job));
  }
  prepared_ = true;
  return "";
}

CampaignRunRecord CampaignRunner::RunOne(const CampaignJob& job) {
  CampaignRunRecord record = options_.run_job ? options_.run_job(job) : RunScenarioJob(job);
  record.label = job.label;
  return record;
}

CampaignReport CampaignRunner::Run() {
  CampaignReport report;
  report.cell_experiment = base_.cell_experiment;
  report.grid_spec = grid_.Spec();
  if (!prepared_) {
    return report;
  }
  report.runs.resize(jobs_.size());
  // Each cell runs on a testbed it alone owns and writes only report.runs[i]; the end of
  // the round is the only synchronization the merge needs.
  WorkerPool pool(std::min(static_cast<size_t>(options_.jobs), jobs_.size()));
  pool.RunRound(jobs_.size(), [&](size_t i) {
    if (options_.before_run) {
      options_.before_run(i);
    }
    report.runs[i] = RunOne(jobs_[i]);
  });
  return report;
}

size_t CampaignReport::HealthyCount() const {
  size_t healthy = 0;
  for (const CampaignRunRecord& run : runs) {
    if (run.healthy) {
      ++healthy;
    }
  }
  return healthy;
}

bool CampaignReport::AllHealthy() const { return HealthyCount() == runs.size(); }

std::string CampaignReport::Summary() const {
  std::ostringstream os;
  os << "campaign: " << runs.size() << " " << cell_experiment << " runs over grid "
     << (grid_spec.empty() ? "(base config)" : grid_spec) << "\n";
  os << "  index  healthy  label\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    os << "  " << std::setw(5) << i << "  " << std::setw(7)
       << (runs[i].healthy ? "yes" : "NO") << "  " << runs[i].label << "\n";
  }
  os << "  healthy: " << HealthyCount() << "/" << runs.size() << "\n";
  return os.str();
}

std::vector<CampaignRunView> CampaignReport::Views() const {
  std::vector<CampaignRunView> views;
  views.reserve(runs.size());
  for (const CampaignRunRecord& run : runs) {
    CampaignRunView view;
    view.label = run.label;
    view.healthy = run.healthy;
    view.info = &run.info;
    view.metrics = run.metrics.get();
    views.push_back(std::move(view));
  }
  return views;
}

std::string CampaignReport::MergedJson() const {
  return CampaignJson(cell_experiment, grid_spec, Views());
}

bool CampaignReport::WriteMergedJson(const std::string& path) const {
  return WriteCampaignJson(cell_experiment, grid_spec, Views(), path);
}

}  // namespace ctms
