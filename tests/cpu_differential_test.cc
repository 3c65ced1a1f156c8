// Differential test: the segment-based Cpu against PerStepCpu, the one-event-per-step model
// it replaced (tests/per_step_cpu.h). Seeded random scenarios drive both with identical
// inputs: jobs at mixed levels with actions on random steps, zero-length steps and on_done
// chains; interrupts arriving at random nanoseconds; memory-contention toggles, some raised
// from inside actions; busy-time probes and an occasional CancelAll, from outside or from
// inside an action, with more work submitted after it. The Cpu side builds its jobs through
// NewJob, so after a cancel it runs them in recycled holders and step vectors. Both must
// produce the same action times and order, the same instants at which each job's captures
// die, busy time per job, submission, preemption and interrupt counts.
//
// The models differ on purpose in one case (ARCHITECTURE.md, "The CPU model", rule 5): an
// outside call at the exact nanosecond of a step boundary. A scenario whose outside call
// lands on a step end in the reference run has that input moved by 1 ns and is rerun, so
// every compared run is free of such ties; CpuTest.ArrivalAtInteriorBoundaryTakesNextBoundary
// pins the tie rule itself.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/hw/cpu.h"
#include "src/sim/rng.h"
#include "src/sim/simulation.h"
#include "tests/per_step_cpu.h"

namespace ctms {
namespace {

struct StepPlan {
  SimDuration duration = 0;
  Spl spl = Spl::kNone;
  bool acts = false;
};

struct JobPlan {
  Spl level = Spl::kNone;
  bool interrupt = false;
  std::vector<StepPlan> steps;
  int action_child = -1;          // job submitted by each acting step, or -1
  std::vector<int> done_children;  // jobs submitted by on_done, in order
  bool raises_contention = false;  // first acting step begins contention, ends it `hold` later
  SimDuration hold = 0;
  bool cancels = false;  // every acting step calls CancelAll before submitting its child
};

struct Input {
  enum class Kind { kSubmit, kBegin, kEnd, kProbe, kCancelAll };
  Kind kind = Kind::kSubmit;
  SimTime at = 0;
  int job = -1;
};

struct Scenario {
  uint64_t seed = 0;
  SimDuration dispatch_base = 0;
  SimDuration dispatch_jitter = 0;
  double stretch = 1.0;
  std::vector<JobPlan> jobs;
  std::vector<Input> inputs;
};

// What a run exposes. `calls` says when each outside call ran and which input caused it, so
// a tie with a step boundary can be traced back to the input to move.
struct Outcome {
  // Actions that ran and captures that died, in order. `step` is the acting step, or one of
  // the codes below.
  static constexpr int kOnDone = -1;
  static constexpr int kOnDoneDied = -2;
  static int ActionDied(int step) { return -3 - step; }
  struct Action {
    SimTime at;
    int job;
    int step;
    bool operator==(const Action&) const = default;
  };
  struct Call {
    SimTime at;
    int input;  // index into inputs, or -1 - job for a job's contention hold
  };
  std::vector<Action> actions;
  std::vector<SimDuration> probes;
  std::map<std::string, SimDuration> busy_by_job;
  SimDuration busy_time = 0;
  uint64_t jobs_completed = 0;
  uint64_t submitted = 0;
  uint64_t preemptions = 0;
  uint64_t interrupts = 0;
  uint64_t steps = 0;
  std::vector<Call> calls;
  std::set<SimTime> step_ends;  // ends of positive-length steps (reference run only)
  int cancels_in_action = 0;
  int submits_after_cancel = 0;
};

Spl RandomLevel(Rng& rng) { return static_cast<Spl>(rng.UniformInt(0, 7)); }

Scenario MakeScenario(uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  s.seed = seed;
  s.dispatch_base = rng.Chance(0.5) ? 0 : rng.UniformInt(1, Microseconds(50));
  s.dispatch_jitter = rng.Chance(0.5) ? 0 : rng.UniformInt(1, Microseconds(20));
  s.stretch = rng.Chance(0.5) ? 1.3 : 1.5;
  const int job_count = static_cast<int>(rng.UniformInt(4, 12));
  for (int j = 0; j < job_count; ++j) {
    JobPlan job;
    job.level = RandomLevel(rng);
    job.interrupt = job.level != Spl::kNone && rng.Chance(0.8);
    const int steps = static_cast<int>(rng.UniformInt(0, 7));
    for (int k = 0; k < steps; ++k) {
      StepPlan step;
      step.duration = rng.Chance(0.2) ? 0 : rng.UniformInt(1, Microseconds(300));
      step.spl = rng.Chance(0.25) ? RandomLevel(rng) : job.level;
      step.acts = rng.Chance(0.3);
      job.steps.push_back(step);
    }
    // Children only point forward, so chains always end.
    if (j + 1 < job_count && rng.Chance(0.3)) {
      job.action_child = static_cast<int>(rng.UniformInt(j + 1, job_count - 1));
    }
    // Two submissions in one on_done: the second meets a segment that began this instant.
    for (int c = 0; c < 2 && j + 1 < job_count && rng.Chance(0.35); ++c) {
      job.done_children.push_back(static_cast<int>(rng.UniformInt(j + 1, job_count - 1)));
    }
    job.raises_contention = rng.Chance(0.2);
    job.hold = rng.UniformInt(1, Microseconds(400));
    s.jobs.push_back(job);
  }
  const SimTime horizon = Milliseconds(3);
  const int arrivals = static_cast<int>(rng.UniformInt(5, 25));
  for (int i = 0; i < arrivals; ++i) {
    // Some arrivals share an instant with the previous one.
    const SimTime at =
        i > 0 && rng.Chance(0.15) ? s.inputs.back().at : rng.UniformInt(0, horizon);
    s.inputs.push_back(
        Input{Input::Kind::kSubmit, at, static_cast<int>(rng.UniformInt(0, job_count - 1))});
  }
  const int toggles = static_cast<int>(rng.UniformInt(0, 4));
  for (int i = 0; i < toggles; ++i) {
    const SimTime begin = rng.UniformInt(0, horizon);
    s.inputs.push_back(Input{Input::Kind::kBegin, begin, -1});
    s.inputs.push_back(
        Input{Input::Kind::kEnd, begin + rng.UniformInt(1, Microseconds(800)), -1});
  }
  const int probes = static_cast<int>(rng.UniformInt(0, 6));
  for (int i = 0; i < probes; ++i) {
    s.inputs.push_back(Input{Input::Kind::kProbe, rng.UniformInt(0, horizon), -1});
  }
  if (rng.Chance(0.2)) {
    const SimTime cancel = rng.UniformInt(0, horizon);
    s.inputs.push_back(Input{Input::Kind::kCancelAll, cancel, -1});
    // Work submitted after an outside cancel queues in recycled holders and never runs.
    if (rng.Chance(0.6)) {
      const int resubmits = static_cast<int>(rng.UniformInt(1, 4));
      for (int i = 0; i < resubmits; ++i) {
        s.inputs.push_back(Input{Input::Kind::kSubmit,
                                 cancel + rng.UniformInt(1, Microseconds(500)),
                                 static_cast<int>(rng.UniformInt(0, job_count - 1))});
      }
    }
  }
  // A cancel from inside an action leaves the CPU running: the cancelled jobs' holders and
  // step vectors are recycled while the action runs, and what it and later arrivals submit
  // reuses them.
  if (rng.Chance(0.3)) {
    s.jobs[static_cast<size_t>(rng.UniformInt(0, job_count - 1))].cancels = true;
  }
  return s;
}

Cpu::Job NewJob(Cpu& cpu, const std::string& name, Spl level) {
  return cpu.NewJob(cpu.Kind(name), level);
}

PerStepCpu::Job NewJob(PerStepCpu& /*cpu*/, const std::string& name, Spl level) {
  PerStepCpu::Job job;
  job.name = name;
  job.level = level;
  return job;
}

template <typename CpuT>
class Driver {
 public:
  // Writes to `out`, which outlives this object: captures still queued when the run ends die
  // with the CPU, and are logged too.
  Driver(const Scenario& s, Outcome* out)
      : s_(s), out_(*out), sim_(s.seed), cpu_(&sim_, "cpu") {
    cpu_.set_dispatch_base(s.dispatch_base);
    cpu_.set_dispatch_jitter(s.dispatch_jitter);
    cpu_.set_contention_stretch(s.stretch);
  }

  void Run(bool trace) {
    sim_.telemetry().tracer.set_enabled(trace);
    for (size_t i = 0; i < s_.inputs.size(); ++i) {
      const Input& input = s_.inputs[i];
      sim_.At(input.at, [this, i, input]() {
        out_.calls.push_back(Outcome::Call{sim_.Now(), static_cast<int>(i)});
        switch (input.kind) {
          case Input::Kind::kSubmit:
            out_.submits_after_cancel += cancelled_ ? 1 : 0;
            Submit(input.job);
            break;
          case Input::Kind::kBegin:
            cpu_.BeginMemoryContention();
            break;
          case Input::Kind::kEnd:
            cpu_.EndMemoryContention();
            break;
          case Input::Kind::kProbe:
            out_.probes.push_back(cpu_.busy_time());
            break;
          case Input::Kind::kCancelAll:
            cancelled_ = true;
            cpu_.CancelAll();
            break;
        }
      });
    }
    sim_.RunAll();
    finished_ = true;
    out_.busy_by_job = cpu_.busy_by_job();
    out_.busy_time = cpu_.busy_time();
    out_.jobs_completed = cpu_.jobs_completed();
    MetricsRegistry& metrics = sim_.telemetry().metrics;
    out_.submitted = metrics.GetCounter("cpu.cpu.jobs_submitted")->value();
    out_.preemptions = metrics.GetCounter("cpu.cpu.preemptions")->value();
    out_.interrupts = metrics.GetCounter("cpu.cpu.interrupts")->value();
    out_.steps = metrics.GetCounter("cpu.cpu.steps_executed")->value();
    for (const TraceSpan& span : sim_.telemetry().tracer.spans()) {
      if (span.duration > 0) {
        out_.step_ends.insert(span.start + span.duration);
      }
    }
  }

 private:
  const JobPlan& Plan(int j) const { return s_.jobs[static_cast<size_t>(j)]; }

  // A token whose last copy logs `step` for job `j` as it dies. Captures still alive when
  // the run ends die with the CPU; they log kTeardown rather than the final clock, which
  // stale end events of cancelled work set differently in the two models.
  std::shared_ptr<void> DeathLog(int j, int step) {
    return std::shared_ptr<void>(nullptr, [this, j, step](void*) {
      out_.actions.push_back(Outcome::Action{finished_ ? kTeardown : sim_.Now(), j, step});
    });
  }

  void Submit(int j) {
    const JobPlan& plan = Plan(j);
    typename CpuT::Job job = NewJob(cpu_, "j" + std::to_string(j), plan.level);
    bool raised = false;
    for (size_t k = 0; k < plan.steps.size(); ++k) {
      const StepPlan& step = plan.steps[k];
      std::function<void()> action;
      if (step.acts) {
        const bool raise = plan.raises_contention && !raised;
        raised = raised || raise;
        const int step_index = static_cast<int>(k);
        action = [this, j, step_index, raise,
                  token = DeathLog(j, Outcome::ActionDied(step_index))]() {
          out_.actions.push_back(Outcome::Action{sim_.Now(), j, step_index});
          if (Plan(j).cancels) {
            ++out_.cancels_in_action;
            cpu_.CancelAll();
          }
          if (raise) {
            cpu_.BeginMemoryContention();
            sim_.After(Plan(j).hold, [this, j]() {
              out_.calls.push_back(Outcome::Call{sim_.Now(), -1 - j});
              cpu_.EndMemoryContention();
            });
          }
          if (Plan(j).action_child >= 0) {
            Submit(Plan(j).action_child);
          }
        };
      }
      job.steps.push_back(typename CpuT::Step{step.duration, std::move(action), step.spl});
    }
    job.on_done = [this, j, token = DeathLog(j, Outcome::kOnDoneDied)]() {
      out_.actions.push_back(Outcome::Action{sim_.Now(), j, Outcome::kOnDone});
      for (const int child : Plan(j).done_children) {
        Submit(child);
      }
    };
    if (plan.interrupt) {
      cpu_.SubmitInterrupt(std::move(job));
    } else {
      cpu_.SubmitProcess(std::move(job));
    }
  }

  static constexpr SimTime kTeardown = -1;

  const Scenario& s_;
  Outcome& out_;
  bool cancelled_ = false;
  bool finished_ = false;  // outlives cpu_, whose destructor may still log
  Simulation sim_;
  CpuT cpu_;
};

template <typename CpuT>
Outcome RunScenario(const Scenario& s, bool trace) {
  Outcome out;
  Driver<CpuT>(s, &out).Run(trace);
  return out;
}

// Moves every input whose outside call met a step end in the reference run by 1 ns, until
// none does. Returns false if that does not settle.
bool RemoveBoundaryTies(Scenario* s) {
  for (int round = 0; round < 50; ++round) {
    const Outcome ref = RunScenario<PerStepCpu>(*s, /*trace=*/true);
    bool moved = false;
    std::set<int> done;
    for (const Outcome::Call& call : ref.calls) {
      if (ref.step_ends.count(call.at) == 0 || !done.insert(call.input).second) {
        continue;
      }
      if (call.input >= 0) {
        const size_t i = static_cast<size_t>(call.input);
        s->inputs[i].at += 1;
        // Keep each contention window's end after its begin.
        if (s->inputs[i].kind == Input::Kind::kBegin && s->inputs[i + 1].at <= s->inputs[i].at) {
          s->inputs[i + 1].at = s->inputs[i].at + 1;
        }
      } else {
        s->jobs[static_cast<size_t>(-1 - call.input)].hold += 1;
      }
      moved = true;
    }
    if (!moved) {
      return true;
    }
  }
  return false;
}

TEST(CpuDifferentialTest, SegmentModelMatchesPerStepModel) {
  int compared_actions = 0;
  int preempting_scenarios = 0;
  int cancel_in_action_scenarios = 0;
  int resubmit_after_cancel_scenarios = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    Scenario s = MakeScenario(seed);
    ASSERT_TRUE(RemoveBoundaryTies(&s)) << "seed " << seed;
    const Outcome ref = RunScenario<PerStepCpu>(s, /*trace=*/false);
    const Outcome got = RunScenario<Cpu>(s, /*trace=*/false);
    ASSERT_EQ(got.actions.size(), ref.actions.size()) << "seed " << seed;
    for (size_t i = 0; i < ref.actions.size(); ++i) {
      ASSERT_EQ(got.actions[i], ref.actions[i])
          << "seed " << seed << " action " << i << ": job " << ref.actions[i].job << " step "
          << ref.actions[i].step << " at " << ref.actions[i].at << " vs job "
          << got.actions[i].job << " step " << got.actions[i].step << " at "
          << got.actions[i].at;
    }
    EXPECT_EQ(got.probes, ref.probes) << "seed " << seed;
    EXPECT_EQ(got.busy_by_job, ref.busy_by_job) << "seed " << seed;
    EXPECT_EQ(got.busy_time, ref.busy_time) << "seed " << seed;
    EXPECT_EQ(got.jobs_completed, ref.jobs_completed) << "seed " << seed;
    EXPECT_EQ(got.submitted, ref.submitted) << "seed " << seed;
    EXPECT_EQ(got.preemptions, ref.preemptions) << "seed " << seed;
    EXPECT_EQ(got.interrupts, ref.interrupts) << "seed " << seed;
    EXPECT_EQ(got.steps, ref.steps) << "seed " << seed;
    compared_actions += static_cast<int>(ref.actions.size());
    preempting_scenarios += ref.preemptions > 0 ? 1 : 0;
    cancel_in_action_scenarios += ref.cancels_in_action > 0 ? 1 : 0;
    resubmit_after_cancel_scenarios += ref.submits_after_cancel > 0 ? 1 : 0;
  }
  // The scenarios must actually exercise the interesting paths.
  EXPECT_GT(compared_actions, 4000);
  EXPECT_GT(preempting_scenarios, 100);
  EXPECT_GT(cancel_in_action_scenarios, 30);
  EXPECT_GT(resubmit_after_cancel_scenarios, 20);
}

}  // namespace
}  // namespace ctms
