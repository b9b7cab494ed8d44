// End-to-end benchmark of the Thrifty library over three workloads.
//
//   thrifty_bench --workload onboard_cold|serve_replay|stream_churn
//                 --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Inputs are generated from --seed; the library only ever sees the
// generated tenants and logs. Every timed phase runs single-threaded
// (solver_jobs = 1, composer jobs = 1) in this one process.
//
// Every run reports the same end-to-end metrics, each read off the
// workload's own timed phase:
//
//   metric        onboard_cold          serve_replay          stream_churn
//   setup_s       log composition       composition, Advise,  composition,
//                                       Deploy (all pops)     on-boarding cycle
//   work_s        one cold Advise       SimEngine::RunUntil   the closed churn
//                 (= advise_s)          over all pops         loops of all pops
//   nodes_saved_pct  100 x (1 - nodes used / nodes requested) of the plans
//
// plus peak_rss_mb and success_frac (operations that passed their check /
// operations attempted). setup_s and work_s are in reference seconds: wall
// time normalized by a reference kernel run during the phase (see
// PhaseTimer); the raw wall times are printed as report lines. The
// workload-specific numbers (serve_queries_per_s, sla_attainment,
// normalized-latency percentiles, cycle percentiles, replay_s) and the
// fingerprints are printed as report lines before the result.
//
// Untraced runs (--trace 0): onboard_cold repeats the cold Advise while
// --seconds allow and reports medians; serve_replay and stream_churn run a
// fixed set of independent populations once (seeds derived from --seed),
// because one population alone varies too much from seed to seed; the sets
// are sized to 15-35 s of timed work, near BENCHMARK.json's run_seconds.
// Traced runs (--trace 1) run one population untraced and then traced (the
// outputs must be identical; the wall difference is the tracing overhead),
// time the placement pipeline layer by layer, and report the per-layer
// metrics; spans are kept in memory and written to --trace-out.
//
// The last line of output is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and the exit code is 0 only when every correctness check passed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_stats.h"
#include "common/fnv.h"
#include "common/simd.h"
#include "core/thrifty.h"
#include "service/streaming_service.h"

namespace {

using namespace thrifty;
using perfbench::Percentile;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// "fingerprint <what>[<population>] <hex>": the deterministic surface that
// must repeat across runs of one seed.
std::string FingerprintLine(const char* what, int population, uint64_t fp) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "fingerprint %s[%d] %016llx", what,
                population, static_cast<unsigned long long>(fp));
  return buf;
}

// A percentile as a label: 0.999 -> "99.9".
std::string PercentLabel(double q) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", q * 100);
  return buf;
}

// Shortest round-trip decimal form, so no digit is lost.
std::string Num(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[64];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
    if (std::strtod(shorter, nullptr) == value) return shorter;
  }
  return buf;
}

// ---------------------------------------------------------------------------
// Host-speed normalization.
//
// The benchmark host is shared: the same binary's wall times drift by tens
// of percent within minutes, more than any useful regression bound. Every
// end-to-end phase is therefore timed with a PhaseTimer, which runs a fixed
// reference kernel (hash-map updates and a sort; no library code) at the
// phase's start, at its checkpoints and at its end, and reports the phase in
// reference seconds: its wall time (kernel runs excluded) times the kernel's
// nominal time over its mean measured time. A library change moves the wall
// time but not the kernel; host drift moves both.
//
// The kernel must not see the state the library leaves behind: it works on
// fixed static buffers (an open-addressed table and an array it sorts in
// place), so it never allocates and the heap's shape cannot change its cost,
// and every timed pass follows an untimed warm-up pass over the same 64 KiB,
// so what the library evicted from the caches is back before the clock runs.

constexpr int kKernelKeys = 4096;
constexpr int kKernelSlotBits = 11;
constexpr int kKernelSlots = 1 << kKernelSlotBits;
// Kernel wall time on the 4-vCPU x86-64 (AVX2) machine the bounds in
// BENCHMARK.json were set on; it only scales the reported numbers.
constexpr double kKernelNominalS = 0.00025;
constexpr int kEdgeSamples = 16;

uint64_t g_kernel_slot_keys[kKernelSlots];
uint64_t g_kernel_slot_values[kKernelSlots];
uint64_t g_kernel_sorted[kKernelKeys];

// One pass of the kernel: kKernelKeys xorshift values summed into at most
// kKernelSlots / 2 keys of the table, then sorted.
uint64_t KernelPass() {
  asm volatile("" : : : "memory");  // a fresh pass every call
  std::fill(std::begin(g_kernel_slot_keys), std::end(g_kernel_slot_keys), 0);
  std::fill(std::begin(g_kernel_slot_values),
            std::end(g_kernel_slot_values), 0);
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < kKernelKeys; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t key = x % (kKernelSlots / 2) + 1;  // 0 marks an empty slot
    uint64_t slot = (key * 0x9e3779b97f4a7c15ULL) >> (64 - kKernelSlotBits);
    while (g_kernel_slot_keys[slot] != 0 && g_kernel_slot_keys[slot] != key) {
      slot = (slot + 1) & (kKernelSlots - 1);
    }
    g_kernel_slot_keys[slot] = key;
    g_kernel_slot_values[slot] += x;
    g_kernel_sorted[i] = x;
  }
  std::sort(std::begin(g_kernel_sorted), std::end(g_kernel_sorted));
  uint64_t sum = g_kernel_sorted[kKernelKeys / 2];
  for (int i = 0; i < kKernelSlots; ++i) {
    sum += g_kernel_slot_keys[i] ^ g_kernel_slot_values[i];
  }
  return sum;
}

// Time of one kernel pass, after an untimed warm-up pass.
double RunReferenceKernel() {
  uint64_t sum = KernelPass();
  auto start = Clock::now();
  sum += KernelPass();
  double seconds = SecondsSince(start);
  asm volatile("" : : "r"(sum) : "memory");  // keep the work
  return seconds;
}

// Every kernel run of the process, for the host-factor report line.
double g_kernel_s = 0;
int g_kernel_samples = 0;

class PhaseTimer {
 public:
  PhaseTimer() {
    Sample(kEdgeSamples);
    start_ = Clock::now();
  }

  // A point inside the phase: one kernel run, excluded from the wall time.
  void Checkpoint() { excluded_s_ += Sample(1); }

  // Ends the phase.
  void Stop() {
    wall_s_ = SecondsSince(start_) - excluded_s_;
    Sample(kEdgeSamples);
  }

  double wall_s() const { return wall_s_; }
  // Mean kernel time over its nominal time: > 1 on a slowed-down host.
  double host_factor() const {
    return kernel_s_ / static_cast<double>(samples_) / kKernelNominalS;
  }
  double reference_s() const { return wall_s_ / host_factor(); }

 private:
  double Sample(int n) {
    auto start = Clock::now();
    double kernel_s = 0;
    for (int i = 0; i < n; ++i) kernel_s += RunReferenceKernel();
    kernel_s_ += kernel_s;
    samples_ += n;
    g_kernel_s += kernel_s;
    g_kernel_samples += n;
    return SecondsSince(start);
  }

  Clock::time_point start_;
  double excluded_s_ = 0;
  double wall_s_ = 0;
  double kernel_s_ = 0;
  int samples_ = 0;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

// The end-to-end metrics every workload reports (untraced runs); see the
// table at the top of the file.
struct EndToEnd {
  double setup_s = 0;
  double work_s = 0;
  double peak_rss_mb = 0;
  double nodes_saved_pct = 0;
};

// The per-layer metrics every workload reports (traced runs). A layer the
// workload does not drive reads 0 in its counts and ratios; the times are
// measured on every workload.
struct Layers {
  double compose_s = 0;
  double log_entries = 0;
  double epochize_s = 0;
  double active_ratio = 0;
  double solve_s = 0;
  double solve_s_jobs2 = 0;
  double level_set_bytes = 0;
  double groups = 0;
  double advise_self_s = 0;
  double resolved_groups_per_cycle = 0;
  double untouched_group_frac = 0;
  double plan_delta_groups_per_cycle = 0;
  double overflow_frac = 0;
  double affinity_frac = 0;
  double touched_per_event = 0;
  double peak_running_set = 0;
  double nodes_in_use = 0;
  double events_per_query = 0;
  double scaling_events = 0;
  double tenants_moved = 0;
  double log_bytes = 0;
  double trace_overhead_s = 0;
};

// What one run produced: check accounting, the metrics, and the
// human-readable report lines (workload-specific metrics, fingerprints).
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  EndToEnd e2e;
  Layers layers;
  std::vector<std::string> report;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  // Counts `attempted` operations of which `failed` did not pass.
  void CheckMany(uint64_t attempted_ops, uint64_t failed_ops,
                 const std::string& what) {
    attempted += attempted_ops;
    failed += failed_ops;
    if (failed_ops > 0) {
      failures.push_back(what + ": " + std::to_string(failed_ops) + " of " +
                         std::to_string(attempted_ops));
    }
  }
  void Note(const std::string& line) { report.push_back(line); }
  // A workload-specific metric, printed with its unit (and what it maps to).
  void NoteMetric(const std::string& name, double value,
                  const std::string& unit, const std::string& detail = "") {
    Note(name + " = " + Num(value) + " " + unit +
         (detail.empty() ? "" : "  [" + detail + "]"));
  }
};

// ---------------------------------------------------------------------------
// Input generation (§7.1 Steps 1+2 at the Table 7.1 defaults).

// Session logs per (node size, suite) class, as in the paper's Step 1.
constexpr int kSessionsPerClass = 100;

struct Inputs {
  std::unique_ptr<QueryCatalog> catalog;
  std::unique_ptr<SessionLibrary> library;
  std::vector<TenantSpec> tenants;
  std::vector<TenantLog> logs;          // full logs (Compose)
  std::vector<IntervalSet> activity;    // activity only (ComposeActivity)
  SimTime horizon = 0;
};

Result<Inputs> MakeInputs(uint64_t seed, int tenants, int days,
                          bool activity_only, SpanRecorder* tracer) {
  ScopedSpan span(tracer, "workload.Compose");
  Inputs in;
  in.catalog = std::make_unique<QueryCatalog>(QueryCatalog::Default());
  Rng rng(seed);
  in.library = std::make_unique<SessionLibrary>(
      in.catalog.get(), std::vector<int>{2, 4, 8, 16, 32}, kSessionsPerClass,
      rng.Fork(1));
  PopulationOptions population;  // Zipf theta = 0.8
  Rng pop_rng = rng.Fork(2);
  THRIFTY_ASSIGN_OR_RETURN(
      in.tenants, GenerateTenantPopulation(tenants, population, &pop_rng));
  LogComposerOptions composer_options;
  composer_options.horizon_days = days;
  composer_options.jobs = 1;
  LogComposer composer(in.library.get(), composer_options);
  Rng compose_rng = rng.Fork(3);
  if (activity_only) {
    THRIFTY_ASSIGN_OR_RETURN(in.activity, composer.ComposeActivity(
                                              &in.tenants, &compose_rng));
  } else {
    THRIFTY_ASSIGN_OR_RETURN(in.logs,
                             composer.Compose(&in.tenants, &compose_rng));
  }
  in.horizon = composer.horizon_end();
  return in;
}

uint64_t LogsFingerprint(const std::vector<TenantLog>& logs) {
  uint64_t hash = kFnv1a64Offset;
  std::string bytes;
  for (const TenantLog& log : logs) {
    bytes.clear();
    auto put = [&bytes](int64_t v) {
      bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put(log.tenant_id);
    for (const QueryLogEntry& e : log.entries) {
      put(e.submit_time);
      put(e.template_id);
      put(e.observed_latency);
      put(e.batch_id);
    }
    hash = Fnv1a64(bytes, hash);
  }
  return hash;
}

size_t LogEntries(const std::vector<TenantLog>& logs) {
  size_t n = 0;
  for (const TenantLog& log : logs) n += log.entries.size();
  return n;
}

double MeanActiveRatio(const std::vector<ActivityVector>& vectors) {
  if (vectors.empty()) return 0;
  double sum = 0;
  for (const ActivityVector& v : vectors) sum += v.ActiveRatio();
  return sum / static_cast<double>(vectors.size());
}

AdvisorOptions DefaultAdvisorOptions() {
  AdvisorOptions options;  // R = 3, P = 0.999, E = 10 s
  options.solver_jobs = 1;
  return options;
}

// The advisor's pipeline called layer by layer from outside: epochize every
// tenant, screen always-active ones, build the packing problem. Used for
// VerifySolution and for the traced per-layer split.
struct Decomposition {
  std::vector<TenantSpec> consolidated;
  std::vector<const TenantLog*> consolidated_logs;
  std::vector<ActivityVector> activities;  // parallel to `consolidated`
  PackingProblem problem;
  SimTime begin = 0;
  SimTime end = 0;
  double epochize_s = 0;
  double problem_s = 0;
  double active_ratio = 0;
};

Result<Decomposition> Decompose(const std::vector<TenantSpec>& tenants,
                                const std::vector<TenantLog>& logs,
                                SimTime begin, SimTime end,
                                const AdvisorOptions& options,
                                SpanRecorder* tracer) {
  Decomposition d;
  d.begin = begin;
  d.end = end;
  EpochConfig epochs;
  epochs.epoch_size = options.epoch_size;
  epochs.begin = begin;
  epochs.end = end;
  std::vector<ActivityVector> all;
  {
    ScopedSpan span(tracer, "activity.MakeActivityVectors");
    auto start = Clock::now();
    all = MakeActivityVectors(logs, epochs, /*jobs=*/1);
    d.epochize_s = SecondsSince(start);
  }
  d.active_ratio = MeanActiveRatio(all);
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].ActiveRatio() > options.always_active_threshold) continue;
    d.consolidated.push_back(tenants[i]);
    d.consolidated_logs.push_back(&logs[i]);
    d.activities.push_back(std::move(all[i]));
  }
  ScopedSpan span(tracer, "placement.MakePackingProblem");
  auto start = Clock::now();
  THRIFTY_ASSIGN_OR_RETURN(
      d.problem,
      MakePackingProblem(d.consolidated, d.activities,
                         options.replication_factor, options.sla_fraction));
  d.problem_s = SecondsSince(start);
  return d;
}

// Traced runs only: the placement layer's cold solve of `d` timed from
// outside at solver_jobs 1 and 2, and the advisor's own work around it
// (problem build, plan build, per-member activity baselines) re-run from
// outside — a subtraction advise - epochize - solve would be lost in the
// host's noise.
Status ProbePlacement(const Decomposition& d, SpanRecorder* tracer,
                      Outcome* out) {
  double seconds[2] = {0, 0};
  GroupingSolution solutions[2];
  for (int jobs = 1; jobs <= 2; ++jobs) {
    ScopedSpan span(tracer, jobs == 1 ? "placement.SolveTwoStep"
                                      : "placement.SolveTwoStep_jobs2");
    TwoStepOptions options;
    options.solver_jobs = jobs;
    auto start = Clock::now();
    THRIFTY_ASSIGN_OR_RETURN(solutions[jobs - 1],
                             SolveTwoStep(d.problem, options));
    seconds[jobs - 1] = SecondsSince(start);
  }
  out->Check(solutions[0].groups.size() == solutions[1].groups.size(),
             "solver_jobs 1 and 2 give the same number of groups");
  double build_s = 0;
  {
    ScopedSpan span(tracer, "core.BuildDeploymentPlan");
    auto start = Clock::now();
    THRIFTY_ASSIGN_OR_RETURN(
        DeploymentPlan plan,
        BuildDeploymentPlan(d.consolidated, solutions[0],
                            d.problem.replication_factor,
                            d.problem.sla_fraction));
    double baseline = 0;
    for (const TenantLog* log : d.consolidated_logs) {
      baseline += log->ActiveRatio(d.begin, d.end);
    }
    build_s = SecondsSince(start);
    out->Check(!plan.groups.empty() && baseline >= 0,
               "the probe's plan has groups");
  }
  out->layers.epochize_s = d.epochize_s;
  out->layers.active_ratio = d.active_ratio;
  out->layers.solve_s = seconds[0];
  out->layers.solve_s_jobs2 = seconds[1];
  out->layers.level_set_bytes =
      static_cast<double>(solutions[0].LevelSetBytes());
  out->layers.advise_self_s = d.problem_s + build_s;
  out->Note("placement.solve_s_jobs2 parallel efficiency = " +
            Num(seconds[0] / (2 * seconds[1])));
  return Status::OK();
}

// Seed of the k-th independent tenant population of a run.
uint64_t PopulationSeed(uint64_t seed, int population) {
  uint64_t words[2] = {seed, static_cast<uint64_t>(population)};
  return Fnv1a64(std::string_view(reinterpret_cast<const char*>(words),
                                  sizeof(words)));
}

std::string Count(size_t n) { return std::to_string(n); }

// ---------------------------------------------------------------------------
// onboard_cold: one cold DeploymentAdvisor::Advise over 2000 tenants with a
// 14-day history; nothing is executed or streamed.

constexpr int kOnboardTenants = 2000;
constexpr int kOnboardDays = 14;
constexpr int kSetupReps = 3;
constexpr int kMinAdviseReps = 3;

Status RunOnboard(const Args& args, SpanRecorder* tracer, Outcome* out) {
  std::vector<double> setup_s, setup_wall_s;
  std::optional<Inputs> in;
  uint64_t logs_fp = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in.reset();
    PhaseTimer timer;
    THRIFTY_ASSIGN_OR_RETURN(
        in, MakeInputs(args.seed, kOnboardTenants, kOnboardDays, false,
                       rep == kSetupReps - 1 ? tracer : nullptr));
    timer.Stop();
    setup_s.push_back(timer.reference_s());
    setup_wall_s.push_back(timer.wall_s());
    uint64_t fp = LogsFingerprint(in->logs);
    out->Check(rep == 0 || fp == logs_fp,
               "onboard_cold: composition repeats byte-identically");
    logs_fp = fp;
  }

  DeploymentAdvisor advisor(DefaultAdvisorOptions());
  std::vector<double> advise_s, advise_wall_s;
  std::optional<AdvisorOutput> advice;
  uint64_t plan_fp = 0;
  auto advise_once = [&](SpanRecorder* rec) {
    PhaseTimer timer;
    Result<AdvisorOutput> result = [&] {
      ScopedSpan span(rec, "core.Advise");
      return advisor.Advise(in->tenants, in->logs, 0, in->horizon);
    }();
    timer.Stop();
    out->Check(result.ok(), "onboard_cold: Advise succeeds");
    if (!result.ok()) return false;
    uint64_t fp = PlanFingerprint(result->plan);
    out->Check(!advice || fp == plan_fp,
               "onboard_cold: PlanFingerprint repeats on the same inputs");
    plan_fp = fp;
    advise_s.push_back(timer.reference_s());
    advise_wall_s.push_back(timer.wall_s());
    advice = std::move(result).value();
    return true;
  };
  if (tracer != nullptr) {
    advise_once(nullptr);
    advise_once(tracer);
  } else {
    // At least kMinAdviseReps calls, then more while one more (at the mean
    // pace so far) is predicted to end within --seconds of the first.
    auto start = Clock::now();
    for (int rep = 0; advise_once(nullptr); ++rep) {
      double elapsed = SecondsSince(start);
      if (rep + 1 >= kMinAdviseReps &&
          elapsed + elapsed / (rep + 1) > args.seconds) {
        break;
      }
    }
  }
  if (!advice) return Status::Internal("no Advise call succeeded");

  THRIFTY_ASSIGN_OR_RETURN(
      Decomposition d, Decompose(in->tenants, in->logs, 0, in->horizon,
                                 DefaultAdvisorOptions(), tracer));
  Status verified = VerifySolution(d.problem, advice->grouping);
  out->Check(verified.ok(),
             "onboard_cold: plan passes VerifySolution " + verified.ToString());

  out->Note(FingerprintLine("logs", 0, logs_fp));
  out->Note(FingerprintLine("plan", 0, plan_fp));
  out->Note("inputs: " + Count(kOnboardTenants) + " tenants x " +
            Count(kOnboardDays) + " days, " + Count(LogEntries(in->logs)) +
            " log entries; " + Count(advice->plan.groups.size()) +
            " groups; " + Count(advice->excluded_tenants.size()) +
            " always-active tenants excluded");
  out->NoteMetric("advise_s", Median(advise_s), "s",
                  "reference seconds, median of " + Count(advise_s.size()) +
                      " cold Advise calls; = work_s");
  out->NoteMetric("advise_wall_s", Median(advise_wall_s), "s",
                  "raw wall; setup raw wall " +
                      Num(Median(setup_wall_s)) + " s");

  out->e2e.setup_s = Median(setup_s);
  out->e2e.work_s = Median(advise_s);
  out->e2e.nodes_saved_pct = 100 * advice->plan.ConsolidationEffectiveness();

  out->layers.compose_s = setup_wall_s.back();
  out->layers.log_entries = static_cast<double>(LogEntries(in->logs));
  out->layers.groups = static_cast<double>(advice->plan.groups.size());
  if (tracer != nullptr) {
    THRIFTY_RETURN_NOT_OK(ProbePlacement(d, tracer, out));
    out->layers.trace_overhead_s = advise_wall_s[1] - advise_wall_s[0];
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// serve_replay: 600 tenants' 7-day logs replayed open-loop in simulated time
// through ThriftyService on the advised plan (virtual-time executor, elastic
// scaling on, R = 3). One tenant is taken over from day 2 by continuous
// Q1s and one node fails mid-replay.

constexpr int kServeTenants = 600;
constexpr int kServeDays = 7;
// Independent populations per run: the replay cost per query depends on
// how a population's activity overlaps, so one population alone varies
// too much from seed to seed.
constexpr int kServePopulations = 6;
// Queries still running at the horizon finish within this slack.
constexpr SimDuration kServeDrain = 12 * kHour;
constexpr int kScalingHeadroomNodes = 64;

struct ServeRep {
  double setup_s = 0;  // reference seconds (PhaseTimer)
  double setup_wall_s = 0;
  double deploy_s = 0;
  double run_s = 0;  // reference seconds
  double run_wall_s = 0;
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t invalid = 0;
  uint64_t submit_failures = 0;
  std::vector<double> normalized;
  uint64_t sla_met = 0;
  uint64_t plan_fp = 0;
  // FNV-1a over the completion count, SLA count and every normalized
  // latency: the deterministic outcome of the replay.
  uint64_t outcome_fp = 0;
  int64_t nodes_used = 0;
  int64_t nodes_requested = 0;
  size_t groups = 0;
  size_t log_entries = 0;
  size_t events = 0;
  std::map<RouteKind, int64_t> routes;
  size_t scaling_events = 0;
  size_t tenants_moved = 0;
  int nodes_in_use = 0;
  double touched_per_event = 0;
  size_t peak_running_set = 0;
  double compose_s = 0;
};

Result<ServeRep> ServeOnce(uint64_t seed, SpanRecorder* tracer,
                           std::optional<Inputs>* keep_inputs) {
  ServeRep rep;
  PhaseTimer setup;
  auto start = Clock::now();
  THRIFTY_ASSIGN_OR_RETURN(
      Inputs in, MakeInputs(seed, kServeTenants, kServeDays, false, tracer));
  rep.compose_s = SecondsSince(start);
  setup.Checkpoint();
  rep.log_entries = LogEntries(in.logs);

  AdvisorOptions advisor_options = DefaultAdvisorOptions();
  Result<AdvisorOutput> advised = [&] {
    ScopedSpan span(tracer, "core.Advise");
    return DeploymentAdvisor(advisor_options)
        .Advise(in.tenants, in.logs, 0, in.horizon);
  }();
  setup.Checkpoint();
  THRIFTY_RETURN_NOT_OK(advised.status());
  const DeploymentPlan& plan = advised->plan;
  rep.plan_fp = PlanFingerprint(plan);
  rep.nodes_used = plan.TotalNodesUsed();
  rep.nodes_requested = plan.TotalNodesRequested();
  rep.groups = plan.groups.size();
  if (plan.groups.size() < 2) {
    return Status::Internal("serve_replay needs at least two groups");
  }

  SimEngine engine;
  SimCostGauge gauge;
  if (tracer != nullptr) engine.set_cost_gauge(&gauge);
  Cluster cluster(
      static_cast<int>(plan.TotalNodesUsed()) + kScalingHeadroomNodes,
      &engine);
  ServiceOptions service_options;
  service_options.replication_factor = advisor_options.replication_factor;
  service_options.sla_fraction = advisor_options.sla_fraction;
  service_options.elastic_scaling = true;
  service_options.scaling.warmup = 20 * kHour;
  service_options.scaling.check_interval = 10 * kMinute;
  ThriftyService service(&engine, &cluster, in.catalog.get(),
                         service_options);
  {
    ScopedSpan span(tracer, "core.Deploy");
    auto deploy_start = Clock::now();
    THRIFTY_RETURN_NOT_OK(service.Deploy(plan));
    rep.deploy_s = SecondsSince(deploy_start);
  }
  rep.normalized.reserve(rep.log_entries + rep.log_entries / 8);
  service.set_completion_hook([&rep](const QueryOutcome& outcome) {
    ++rep.completed;
    double normalized = outcome.NormalizedPerformance();
    if (!(normalized > 0) || !std::isfinite(normalized) ||
        outcome.real.MeasuredLatency() <= 0) {
      ++rep.invalid;
    }
    rep.normalized.push_back(normalized);
  });
  rep.submitted = rep.log_entries;
  THRIFTY_RETURN_NOT_OK(service.ScheduleLogReplay(in.logs));

  // A 2-node tenant is taken over from day 2 (t = 26 h) by near-continuous
  // Q1s (~9 s each on 2 nodes, one every 12 s), so the RT-TTP monitor
  // breaches and the elastic scaler acts while the tenant's own load stays
  // below what its nodes can serve.
  TenantId rogue = kInvalidTenantId;
  for (const GroupDeployment& group : plan.groups) {
    for (const TenantSpec& spec : group.tenants) {
      if (spec.requested_nodes == 2 && rogue == kInvalidTenantId) {
        rogue = spec.id;
      }
    }
  }
  if (rogue == kInvalidTenantId) {
    return Status::Internal("serve_replay needs a 2-node tenant");
  }
  THRIFTY_ASSIGN_OR_RETURN(TemplateId q1,
                           in.catalog->FindByName("TPCH-Q1"));
  for (SimTime t = 26 * kHour; t < in.horizon; t += 12 * kSecond) {
    engine.ScheduleAt(t, [&service, &rep, rogue, q1](SimTime) {
      if (service.SubmitQuery(rogue, q1).ok()) {
        ++rep.submitted;
      } else {
        ++rep.submit_failures;
      }
    });
  }
  // One node of a group's tuning MPPDB fails half-way (auto-replaced).
  GroupId failed_group = plan.groups[plan.groups.size() / 2].group_id;
  THRIFTY_ASSIGN_OR_RETURN(GroupRouter * failed_router,
                           service.router()->RouterForGroup(failed_group));
  InstanceId failed_instance = failed_router->mppdbs()[0]->id();
  Status failure_status;
  engine.ScheduleAt(in.horizon / 2, [&](SimTime) {
    failure_status = cluster.InjectNodeFailure(failed_instance);
  });
  setup.Stop();
  rep.setup_s = setup.reference_s();
  rep.setup_wall_s = setup.wall_s();

  {
    // Simulated hours are replayed one RunUntil at a time so the host
    // probe samples the whole replay.
    ScopedSpan span(tracer, "sim.RunUntil");
    PhaseTimer run;
    for (SimTime t = kHour; t < in.horizon + kServeDrain; t += kHour) {
      engine.RunUntil(t);
      run.Checkpoint();
    }
    engine.RunUntil(in.horizon + kServeDrain);
    run.Stop();
    rep.run_s = run.reference_s();
    rep.run_wall_s = run.wall_s();
  }
  THRIFTY_RETURN_NOT_OK(failure_status);
  if (cluster.failures_injected() != 1) {
    return Status::Internal("node failure was not injected");
  }
  rep.sla_met = service.metrics().sla_met;
  std::string outcome = std::to_string(rep.completed) + "/" +
                        std::to_string(rep.sla_met) + "/";
  outcome.append(reinterpret_cast<const char*>(rep.normalized.data()),
                 rep.normalized.size() * sizeof(double));
  rep.outcome_fp = Fnv1a64(outcome);
  rep.events = engine.events_processed();
  rep.nodes_in_use = cluster.nodes_in_use();
  for (const GroupDeployment& group : plan.groups) {
    THRIFTY_ASSIGN_OR_RETURN(GroupRouter * router,
                             service.router()->RouterForGroup(group.group_id));
    for (const auto& [kind, count] : router->counters()) {
      rep.routes[kind] += count;
    }
  }
  if (service.scaler() != nullptr) {
    for (const ScalingEvent& event : service.scaler()->events()) {
      ++rep.scaling_events;
      rep.tenants_moved += event.tenants.size();
    }
  }
  rep.touched_per_event = gauge.TouchedPerEvent();
  rep.peak_running_set = gauge.peak_running_set();
  if (keep_inputs != nullptr) *keep_inputs = std::move(in);
  return rep;
}

// The median and the highest tail percentile with at least ten samples
// beyond it, as report lines "<prefix>p50<suffix>" and "<prefix>p<q><suffix>".
void NotePercentiles(const std::string& prefix, const std::string& suffix,
                     const std::vector<double>& samples,
                     const std::string& unit, const std::string& detail,
                     Outcome* out) {
  std::string n = detail + "n = " + Count(samples.size());
  out->NoteMetric(prefix + "p50" + suffix, Percentile(samples, 0.5), unit, n);
  std::optional<double> tail = perfbench::TailQuantile(samples.size());
  if (tail) {
    out->NoteMetric(prefix + "p" + PercentLabel(*tail) + suffix,
                    Percentile(samples, *tail), unit,
                    "highest percentile with >= 10 samples beyond; " + n);
  }
}

// Counts one replay's queries against success_frac: every submitted query
// must complete with a valid outcome.
bool CheckServeRep(const Result<ServeRep>& rep, Outcome* out) {
  out->Check(rep.ok(), "serve_replay: set-up and replay succeed " +
                           rep.status().ToString());
  if (!rep.ok()) return false;
  uint64_t missing = rep->submitted - std::min(rep->submitted, rep->completed);
  out->CheckMany(rep->submitted + rep->submit_failures,
                 rep->submit_failures + rep->invalid + missing,
                 "serve_replay: queries not completed with a valid outcome "
                 "(submitted " + Count(rep->submitted) + ", completed " +
                     Count(rep->completed) + ", invalid " +
                     Count(rep->invalid) + ")");
  return true;
}

void NoteServeFingerprints(int population, const ServeRep& rep, Outcome* out) {
  out->Note(FingerprintLine("plan", population, rep.plan_fp));
  out->Note(FingerprintLine("outcomes", population, rep.outcome_fp));
}

void NoteRouting(const ServeRep& rep, Outcome* out) {
  double routed = 0;
  for (const auto& [kind, count] : rep.routes) routed += count;
  auto share = [&](RouteKind kind) {
    auto it = rep.routes.find(kind);
    return routed > 0 && it != rep.routes.end() ? it->second / routed : 0.0;
  };
  out->layers.overflow_frac = share(RouteKind::kOverflow);
  out->layers.affinity_frac = share(RouteKind::kTenantAffinity);
}

// Untraced: kServePopulations independent populations replayed once; the
// times are sums over them. Traced: population 0 replayed untraced and then
// traced.
Status RunServe(const Args& args, SpanRecorder* tracer, Outcome* out) {
  if (tracer != nullptr) {
    std::optional<Inputs> inputs;
    Result<ServeRep> plain = ServeOnce(PopulationSeed(args.seed, 0), nullptr,
                                       nullptr);
    Result<ServeRep> traced =
        ServeOnce(PopulationSeed(args.seed, 0), tracer, &inputs);
    if (!CheckServeRep(plain, out) || !CheckServeRep(traced, out)) {
      return Status::Internal("serve_replay replay failed");
    }
    out->Check(plain->outcome_fp == traced->outcome_fp,
               "serve_replay: outcomes repeat under tracing");
    NoteServeFingerprints(0, *traced, out);
    out->layers.compose_s = traced->compose_s;
    out->layers.log_entries = static_cast<double>(traced->log_entries);
    out->layers.groups = static_cast<double>(traced->groups);
    NoteRouting(*traced, out);
    out->layers.touched_per_event = traced->touched_per_event;
    out->layers.peak_running_set =
        static_cast<double>(traced->peak_running_set);
    out->layers.nodes_in_use = traced->nodes_in_use;
    out->layers.events_per_query = static_cast<double>(traced->events) /
                                   static_cast<double>(traced->completed);
    out->layers.scaling_events = static_cast<double>(traced->scaling_events);
    out->layers.tenants_moved = static_cast<double>(traced->tenants_moved);
    out->NoteMetric("core.deploy_s", traced->deploy_s, "s",
                    "-> setup_s / serve_replay");
    out->NoteMetric("sim.run_s", traced->run_wall_s, "s",
                    "-> work_s (serve_queries_per_s) / serve_replay");
    THRIFTY_ASSIGN_OR_RETURN(
        Decomposition d,
        Decompose(inputs->tenants, inputs->logs, 0, inputs->horizon,
                  DefaultAdvisorOptions(), tracer));
    THRIFTY_RETURN_NOT_OK(ProbePlacement(d, tracer, out));
    out->layers.trace_overhead_s = traced->run_wall_s - plain->run_wall_s;
    return Status::OK();
  }

  double setup_s = 0, run_s = 0, run_wall_s = 0;
  uint64_t submitted = 0, completed = 0, sla_met = 0, events = 0;
  int64_t used = 0, requested = 0;
  size_t scaling = 0;
  std::vector<double> normalized;
  for (int k = 0; k < kServePopulations; ++k) {
    Result<ServeRep> rep =
        ServeOnce(PopulationSeed(args.seed, k), nullptr, nullptr);
    if (!CheckServeRep(rep, out)) {
      return Status::Internal("serve_replay replay failed");
    }
    NoteServeFingerprints(k, *rep, out);
    setup_s += rep->setup_s;
    run_s += rep->run_s;
    run_wall_s += rep->run_wall_s;
    submitted += rep->log_entries;
    completed += rep->completed;
    sla_met += rep->sla_met;
    events += rep->events;
    used += rep->nodes_used;
    requested += rep->nodes_requested;
    scaling += rep->scaling_events;
    if (k == 0) normalized = std::move(rep->normalized);
  }
  out->Note("inputs: " + Count(kServePopulations) + " populations x " +
            Count(kServeTenants) + " tenants x " + Count(kServeDays) +
            " days, " + Count(submitted) +
            " logged queries replayed open-loop + rogue Q1s; " +
            Count(completed) + " completed, " + Count(events) +
            " sim events, " + Count(scaling) + " elastic scaling events");
  out->NoteMetric("serve_queries_per_s",
                  static_cast<double>(completed) / run_s, "1/s",
                  "per reference second of work_s");
  out->NoteMetric("replay_wall_s", run_wall_s, "s",
                  "raw wall of RunUntil, all populations");
  out->NoteMetric("sla_attainment",
                  static_cast<double>(sla_met) / static_cast<double>(completed),
                  "fraction");
  NotePercentiles("norm_latency_", "", normalized, "ratio", "population 0, ",
                  out);

  out->e2e.setup_s = setup_s;
  out->e2e.work_s = run_s;
  out->e2e.nodes_saved_pct =
      100 * (1 - static_cast<double>(used) / static_cast<double>(requested));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// stream_churn: 1000 tenants with a 3-day history on-boarded through
// kRegister into a StreamingService with a DeploymentMaster and Cluster
// attached, then a closed loop of churn cycles, then a replay of the
// recorded log.

constexpr int kStreamTenants = 1000;
constexpr int kStreamDays = 3;
// Independent populations per run (the per-cycle cost depends on the
// population's group structure, so one population alone varies too much
// from seed to seed); the cycles of all populations are pooled for the
// cycle percentiles.
constexpr int kStreamPopulations = 10;
constexpr int kStreamCycles = 50;
constexpr int kChurnPerCycle = 3;
constexpr int kDriftPerCycle = 2;
constexpr int kFailureEvery = 10;
constexpr SimDuration kCyclePeriod = kHour;

StreamingServiceOptions StreamOptions() {
  StreamingServiceOptions options;
  options.reconsolidation.advisor = DefaultAdvisorOptions();
  options.reconsolidation.activity_delta_threshold = 0.003;
  options.history_begin = 0;
  options.history_end = static_cast<SimTime>(kStreamDays) * kDay;
  options.cycle_period = kCyclePeriod;
  return options;
}

std::vector<QueryLogEntry> EntriesFor(const IntervalSet& activity) {
  std::vector<QueryLogEntry> entries;
  entries.reserve(activity.size());
  for (const auto& interval : activity.intervals()) {
    entries.push_back({interval.begin, 0, interval.length(), -1});
  }
  return entries;
}

// The per-cycle SLA feedback: a group's violation rate is modelled as
// 20 x (1 - ttp) of its solved TTP, capped at 1.
void ModelFeedback(const DeploymentPlan& plan, uint32_t* queries,
                   uint32_t* violations) {
  uint64_t q = 0;
  uint64_t v = 0;
  for (const auto& group : plan.groups) {
    uint64_t group_queries = 40 + 20 * group.tenants.size();
    double rate = std::min(1.0, std::max(0.0, 20.0 * (1.0 - group.ttp)));
    q += group_queries;
    v += std::min<uint64_t>(
        group_queries,
        static_cast<uint64_t>(static_cast<double>(group_queries) * rate + 0.5));
  }
  *queries = static_cast<uint32_t>(q);
  *violations = static_cast<uint32_t>(v);
}

GroupId MostPopulatedGroup(const DeploymentPlan& plan) {
  GroupId chosen = -1;
  size_t best = 0;
  for (const auto& group : plan.groups) {
    if (group.tenants.size() > best) {
      best = group.tenants.size();
      chosen = group.group_id;
    }
  }
  return chosen;
}

struct StreamRep {
  double setup_s = 0;  // reference seconds (PhaseTimer)
  double setup_wall_s = 0;
  double loop_s = 0;  // raw wall
  double loop_ref_s = 0;
  double replay_s = 0;
  double compose_s = 0;
  uint64_t ingests = 0;
  uint64_t rejected = 0;
  std::vector<double> cycle_ms;
  std::vector<double> solve_ms;
  std::vector<double> ingest_us;
  std::vector<double> history_ms;
  uint64_t decision_fp = 0;
  uint64_t controller_fp = 0;
  uint64_t log_fp = 0;
  bool replay_ok = false;
  bool replay_identical = false;
  int64_t nodes_used = 0;
  int64_t nodes_requested = 0;
  size_t groups = 0;
  size_t log_entries = 0;
  size_t log_bytes = 0;
  double encode_s = 0;
  double decode_s = 0;
  double resolved = 0;
  double untouched_frac = 0;
  double delta = 0;
  int nodes_in_use = 0;
  // Initial population (tenant specs and logs) for the traced layer probe.
  std::vector<TenantSpec> initial_specs;
  std::vector<TenantLog> initial_logs;
};

Result<StreamRep> StreamOnce(uint64_t seed, SpanRecorder* tracer) {
  StreamRep rep;
  PhaseTimer setup;
  auto start = Clock::now();
  const int total = kStreamTenants + kStreamCycles * kChurnPerCycle;
  THRIFTY_ASSIGN_OR_RETURN(Inputs in,
                           MakeInputs(seed, total, kStreamDays, true, tracer));
  rep.compose_s = SecondsSince(start);
  setup.Checkpoint();
  std::vector<std::vector<QueryLogEntry>> entries(in.activity.size());
  for (size_t i = 0; i < in.activity.size(); ++i) {
    entries[i] = EntriesFor(in.activity[i]);
    rep.log_entries += entries[i].size();
  }

  StreamingServiceOptions options = StreamOptions();
  StreamingService service(options);
  SimEngine engine;
  Cluster cluster(static_cast<int>(options.reconsolidation.advisor
                                       .replication_factor *
                                   TotalRequestedNodes(in.tenants)),
                  &engine);
  QueryRouter router;
  DeploymentMaster master(&cluster, &router);
  service.AttachDeployment(&master);

  auto ingest = [&](TenantEvent event) {
    auto t0 = Clock::now();
    Status st = service.Ingest(std::move(event));
    rep.ingest_us.push_back(SecondsSince(t0) * 1e6);
    ++rep.ingests;
    if (!st.ok()) ++rep.rejected;
  };
  auto mark = [&](SimTime t) {
    ScopedSpan span(tracer, "service.Ingest(kCycleMark)");
    auto t0 = Clock::now();
    Status st = service.Ingest(MakeCycleMarkEvent(t));
    double ms = SecondsSince(t0) * 1e3;
    ++rep.ingests;
    if (!st.ok()) ++rep.rejected;
    return ms;
  };

  {
    ScopedSpan span(tracer, "service.Ingest(register)");
    for (int i = 0; i < kStreamTenants; ++i) {
      ingest(MakeRegisterEvent(0, in.tenants[static_cast<size_t>(i)],
                               entries[static_cast<size_t>(i)]));
      if (i % 100 == 99) setup.Checkpoint();
    }
  }
  mark(kCyclePeriod);  // cycle 0: the cold on-boarding solve
  setup.Stop();
  rep.setup_s = setup.reference_s();
  rep.setup_wall_s = setup.wall_s();

  std::vector<size_t> registered(kStreamTenants);
  for (size_t i = 0; i < registered.size(); ++i) registered[i] = i;
  size_t next_fresh = kStreamTenants;
  Rng churn_rng = Rng(seed).Fork(4);
  PhaseTimer loop;
  for (int c = 1; c <= kStreamCycles; ++c) {
    SimTime t = static_cast<SimTime>(c) * kCyclePeriod + kSecond;
    ScopedSpan cycle_span(tracer, "service.cycle");
    for (int j = 0; j < kChurnPerCycle; ++j) {
      size_t pos = churn_rng.NextBounded(registered.size());
      size_t index = registered[pos];
      registered[pos] = registered.back();
      registered.pop_back();
      ingest(MakeDeregisterEvent(t, in.tenants[index].id));
      t += kSecond;
    }
    for (int j = 0; j < kChurnPerCycle; ++j) {
      size_t index = next_fresh++;
      registered.push_back(index);
      ingest(MakeRegisterEvent(t, in.tenants[index], entries[index]));
      t += kSecond;
    }
    std::unordered_set<size_t> drifted;
    while (drifted.size() < static_cast<size_t>(kDriftPerCycle)) {
      size_t index = registered[churn_rng.NextBounded(registered.size())];
      if (!drifted.insert(index).second) continue;
      ingest(MakeActivityDriftEvent(t, in.tenants[index].id, 2));
      t += kSecond;
    }
    uint32_t queries = 0;
    uint32_t violations = 0;
    ModelFeedback(service.current_plan(), &queries, &violations);
    ingest(MakeSlaReportEvent(t, queries, violations));
    t += kSecond;
    if (c % kFailureEvery == 0) {
      GroupId target = MostPopulatedGroup(service.current_plan());
      std::vector<InstanceId> instances = service.InstancesOf(target);
      if (!instances.empty()) {
        THRIFTY_RETURN_NOT_OK(
            cluster.InjectNodeFailure(instances[0], /*auto_replace=*/false));
      }
      ingest(MakeGroupFailureEvent(t, target));
    }
    if (tracer != nullptr) {
      ScopedSpan span(tracer, "service.CurrentHistory");
      auto t0 = Clock::now();
      std::vector<TenantLog> history = service.CurrentHistory();
      rep.history_ms.push_back(SecondsSince(t0) * 1e3);
    }
    rep.cycle_ms.push_back(mark(static_cast<SimTime>(c + 1) * kCyclePeriod));
    rep.solve_ms.push_back(service.decisions().back().solve_wall_ms);
    loop.Checkpoint();
  }
  loop.Stop();
  rep.loop_s = loop.wall_s();
  if (tracer != nullptr) {
    double history_s = 0;
    for (double ms : rep.history_ms) history_s += ms / 1e3;
    rep.loop_s -= history_s;  // the per-cycle history probe is not loop work
  }
  rep.loop_ref_s = rep.loop_s / loop.host_factor();

  const std::vector<CycleDecision>& decisions = service.decisions();
  size_t resolved = 0, untouched = 0, delta = 0;
  for (size_t i = 1; i < decisions.size(); ++i) {
    resolved += decisions[i].resolved_groups.size();
    untouched += decisions[i].untouched_groups.size();
    delta += decisions[i].dissolved_groups.size() +
             decisions[i].created_groups.size();
  }
  double cycles = static_cast<double>(decisions.size() - 1);
  rep.resolved = static_cast<double>(resolved) / cycles;
  rep.delta = static_cast<double>(delta) / cycles;
  rep.untouched_frac = resolved + untouched == 0
                           ? 0
                           : static_cast<double>(untouched) /
                                 static_cast<double>(resolved + untouched);
  rep.decision_fp = service.DecisionFingerprint();
  rep.controller_fp = service.controller().TrajectoryFingerprint();
  rep.nodes_used = service.current_plan().TotalNodesUsed();
  rep.nodes_requested = service.current_plan().TotalNodesRequested();
  rep.groups = service.current_plan().groups.size();
  rep.nodes_in_use = cluster.nodes_in_use();

  std::string encoded;
  {
    ScopedSpan span(tracer, "service.EncodeLog");
    auto t0 = Clock::now();
    encoded = service.EncodeLog();
    rep.encode_s = SecondsSince(t0);
  }
  rep.log_bytes = encoded.size();
  rep.log_fp = Fnv1a64(encoded);
  if (tracer != nullptr) {
    ScopedSpan span(tracer, "service.DecodeEventLog");
    auto t0 = Clock::now();
    auto decoded = DecodeEventLog(encoded);
    rep.decode_s = SecondsSince(t0);
    THRIFTY_RETURN_NOT_OK(decoded.status());
  }
  {
    ScopedSpan span(tracer, "service.Replay");
    auto t0 = Clock::now();
    Result<StreamingService> replayed =
        StreamingService::Replay(encoded, StreamOptions());
    rep.replay_s = SecondsSince(t0);
    rep.replay_ok = replayed.ok();
    rep.replay_identical =
        replayed.ok() && replayed->DecisionFingerprint() == rep.decision_fp &&
        replayed->controller().TrajectoryFingerprint() == rep.controller_fp;
  }
  if (tracer != nullptr) {
    for (int i = 0; i < kStreamTenants; ++i) {
      rep.initial_specs.push_back(in.tenants[static_cast<size_t>(i)]);
      TenantLog log;
      log.tenant_id = in.tenants[static_cast<size_t>(i)].id;
      log.entries = entries[static_cast<size_t>(i)];
      rep.initial_logs.push_back(std::move(log));
    }
  }
  return rep;
}

// Counts one population's Ingest calls and replay checks against
// success_frac.
bool CheckStreamRep(const Result<StreamRep>& rep, Outcome* out) {
  out->Check(rep.ok(), "stream_churn: run succeeds " + rep.status().ToString());
  if (!rep.ok()) return false;
  out->CheckMany(rep->ingests, rep->rejected,
                 "stream_churn: Ingest calls rejected");
  out->Check(rep->replay_ok, "stream_churn: Replay succeeds");
  out->Check(rep->replay_identical,
             "stream_churn: Replay reproduces the live decision and "
             "controller fingerprints");
  return true;
}

bool SameStreamOutput(const StreamRep& a, const StreamRep& b) {
  return a.decision_fp == b.decision_fp && a.controller_fp == b.controller_fp &&
         a.log_fp == b.log_fp;
}

void NoteStreamFingerprints(int population, const StreamRep& rep,
                            Outcome* out) {
  out->Note(FingerprintLine("decisions", population, rep.decision_fp));
  out->Note(FingerprintLine("controller", population, rep.controller_fp));
  out->Note(FingerprintLine("event_log", population, rep.log_fp));
}

// Untraced: kStreamPopulations independent populations run once; the times
// are sums over them and the cycle samples are pooled. Traced: population 0
// run untraced and then traced.
Status RunStream(const Args& args, SpanRecorder* tracer, Outcome* out) {
  if (tracer != nullptr) {
    Result<StreamRep> plain = StreamOnce(PopulationSeed(args.seed, 0), nullptr);
    Result<StreamRep> traced = StreamOnce(PopulationSeed(args.seed, 0), tracer);
    if (!CheckStreamRep(plain, out) || !CheckStreamRep(traced, out)) {
      return Status::Internal("stream_churn run failed");
    }
    out->Check(SameStreamOutput(*plain, *traced),
               "stream_churn: decisions and event log repeat under tracing");
    NoteStreamFingerprints(0, *traced, out);
    const StreamRep& rep = *traced;
    out->layers.compose_s = rep.compose_s;
    out->layers.log_entries = static_cast<double>(rep.log_entries);
    out->layers.groups = static_cast<double>(rep.groups);
    out->layers.resolved_groups_per_cycle = rep.resolved;
    out->layers.untouched_group_frac = rep.untouched_frac;
    out->layers.plan_delta_groups_per_cycle = rep.delta;
    out->layers.nodes_in_use = rep.nodes_in_use;
    out->layers.log_bytes = static_cast<double>(rep.log_bytes);
    std::vector<double> self_ms;
    for (size_t i = 0; i < rep.cycle_ms.size(); ++i) {
      self_ms.push_back(rep.cycle_ms[i] - rep.solve_ms[i]);
    }
    out->NoteMetric("placement.cycle_solve_ms_p50",
                    Percentile(rep.solve_ms, 0.5), "ms",
                    "-> work_s (cycle_p50_ms) / stream_churn");
    out->NoteMetric("service.cycle_self_ms_p50", Percentile(self_ms, 0.5),
                    "ms", "-> work_s (cycle_p50_ms) / stream_churn");
    out->NoteMetric("service.current_history_ms",
                    Percentile(rep.history_ms, 0.5), "ms",
                    "median per cycle -> work_s (cycle_p50_ms) / stream_churn");
    out->NoteMetric("service.ingest_us_p50", Percentile(rep.ingest_us, 0.5),
                    "us", "non-mark Ingest -> setup_s / stream_churn");
    out->NoteMetric("service.encode_s", rep.encode_s, "s",
                    "-> replay_s / stream_churn");
    out->NoteMetric("service.decode_s", rep.decode_s, "s",
                    "-> replay_s / stream_churn");
    // Layer probe over the initial population: what cycle 0 solves.
    THRIFTY_ASSIGN_OR_RETURN(
        Decomposition d,
        Decompose(rep.initial_specs, rep.initial_logs, 0,
                  StreamOptions().history_end, DefaultAdvisorOptions(),
                  tracer));
    THRIFTY_RETURN_NOT_OK(ProbePlacement(d, tracer, out));
    out->layers.trace_overhead_s = traced->loop_s - plain->loop_s;
    return Status::OK();
  }

  double setup_s = 0, loop_s = 0, loop_wall_s = 0, replay_s = 0;
  std::vector<double> cycle_ms;
  int64_t used = 0, requested = 0;
  for (int k = 0; k < kStreamPopulations; ++k) {
    Result<StreamRep> rep = StreamOnce(PopulationSeed(args.seed, k), nullptr);
    if (!CheckStreamRep(rep, out)) {
      return Status::Internal("stream_churn run failed");
    }
    NoteStreamFingerprints(k, *rep, out);
    setup_s += rep->setup_s;
    loop_s += rep->loop_ref_s;
    loop_wall_s += rep->loop_s;
    replay_s += rep->replay_s;
    cycle_ms.insert(cycle_ms.end(), rep->cycle_ms.begin(), rep->cycle_ms.end());
    used += rep->nodes_used;
    requested += rep->nodes_requested;
  }
  out->Note("inputs: " + Count(kStreamPopulations) + " populations x " +
            Count(kStreamTenants) + " tenants x " + Count(kStreamDays) +
            " days on-boarded, " + Count(kStreamCycles) +
            " closed-loop churn cycles each (" + Count(kChurnPerCycle) +
            " deregister + " + Count(kChurnPerCycle) + " register + " +
            Count(kDriftPerCycle) + " drift + 1 SLA report, a group failure "
            "every " + Count(kFailureEvery) + ")");
  NotePercentiles("cycle_", "_ms", cycle_ms, "ms", "", out);
  out->NoteMetric("replay_s", replay_s, "s", "raw wall, all populations");
  out->NoteMetric("churn_loop_wall_s", loop_wall_s, "s",
                  "raw wall, all populations");

  out->e2e.setup_s = setup_s;
  out->e2e.work_s = loop_s;
  out->e2e.nodes_saved_pct =
      100 * (1 - static_cast<double>(used) / static_cast<double>(requested));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Output and main.

struct Named {
  const char* name;
  const char* unit;
  double value;
  // Per-layer metrics: the end-to-end metric / workload the layer moves.
  const char* moves = "";
};

std::vector<Named> EndToEndMetrics(const Outcome& out) {
  double success = static_cast<double>(out.attempted - out.failed) /
                   static_cast<double>(std::max<uint64_t>(out.attempted, 1));
  return {
      {"setup_s", "s", out.e2e.setup_s},
      {"work_s", "s", out.e2e.work_s},
      {"peak_rss_mb", "MiB", out.e2e.peak_rss_mb},
      {"success_frac", "fraction", success},
      {"nodes_saved_pct", "%", out.e2e.nodes_saved_pct},
  };
}

std::vector<Named> LayerMetrics(const Outcome& out) {
  const Layers& l = out.layers;
  return {
      {"workload.compose_s", "s", l.compose_s, "setup_s / all"},
      {"workload.log_entries", "count", l.log_entries, "setup_s / all"},
      {"activity.epochize_s", "s", l.epochize_s,
       "work_s (advise_s) / onboard_cold"},
      {"activity.active_ratio", "fraction", l.active_ratio,
       "input property / all"},
      {"placement.solve_s", "s", l.solve_s, "work_s (advise_s) / onboard_cold"},
      {"placement.solve_s_jobs2", "s", l.solve_s_jobs2,
       "parallel efficiency only / onboard_cold"},
      {"placement.level_set_bytes", "bytes", l.level_set_bytes,
       "peak_rss_mb / onboard_cold"},
      {"placement.groups", "count", l.groups, "nodes_saved_pct / all"},
      {"core.advise_self_s", "s", l.advise_self_s,
       "work_s (advise_s) / onboard_cold"},
      {"core.resolved_groups_per_cycle", "count", l.resolved_groups_per_cycle,
       "work_s (cycle_p50_ms) / stream_churn"},
      {"core.untouched_group_frac", "fraction", l.untouched_group_frac,
       "work_s (cycle_p50_ms) / stream_churn"},
      {"core.plan_delta_groups_per_cycle", "count",
       l.plan_delta_groups_per_cycle, "work_s (cycle_p50_ms) / stream_churn"},
      {"routing.overflow_frac", "fraction", l.overflow_frac,
       "sla_attainment, norm_latency tail / serve_replay"},
      {"routing.affinity_frac", "fraction", l.affinity_frac,
       "sla_attainment / serve_replay"},
      {"mppdb.touched_per_event", "count", l.touched_per_event,
       "work_s (serve_queries_per_s) / serve_replay"},
      {"mppdb.peak_running_set", "count", l.peak_running_set,
       "work_s (serve_queries_per_s) / serve_replay"},
      {"mppdb.nodes_in_use", "count", l.nodes_in_use,
       "nodes_saved_pct / serve_replay, stream_churn"},
      {"sim.events_per_query", "count", l.events_per_query,
       "work_s (serve_queries_per_s) / serve_replay"},
      {"scaling.events", "count", l.scaling_events,
       "sla_attainment / serve_replay"},
      {"scaling.tenants_moved", "count", l.tenants_moved,
       "sla_attainment / serve_replay"},
      {"service.log_bytes", "bytes", l.log_bytes, "replay_s / stream_churn"},
      {"trace.overhead_s", "s", l.trace_overhead_s,
       "traced minus untraced wall of the timed phase"},
  };
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

Status WriteSpans(const std::string& path, const std::string& workload,
                  const SpanRecorder& recorder) {
  std::ofstream file(path);
  if (!file) return Status::Internal("cannot open " + path);
  std::vector<double> self = perfbench::SelfTimes(recorder.spans());
  file << "{\"workload\": " << JsonString(workload) << ", \"spans\": [\n";
  const auto& spans = recorder.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    file << "  {\"id\": " << i << ", \"name\": " << JsonString(spans[i].name)
         << ", \"start\": " << Num(spans[i].start)
         << ", \"end\": " << Num(spans[i].end)
         << ", \"parent\": " << spans[i].parent
         << ", \"self\": " << Num(self[i]) << "}"
         << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  file << "]}\n";
  return file ? Status::OK() : Status::Internal("cannot write " + path);
}

void PrintSpanTable(const SpanRecorder& recorder) {
  std::cout << "spans (name: count, total s, self s)\n";
  for (const auto& [name, totals] : perfbench::TotalsByName(recorder.spans())) {
    std::cout << "  " << name << ": " << totals.count << ", "
              << Num(totals.total_s) << ", " << Num(totals.self_s) << "\n";
  }
}

int Usage(const std::string& message) {
  std::cerr << "thrifty_bench: " << message
            << "\nusage: thrifty_bench --workload "
               "onboard_cold|serve_replay|stream_churn --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) {
        return Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  std::map<std::string, Status (*)(const Args&, SpanRecorder*, Outcome*)>
      workloads = {{"onboard_cold", RunOnboard},
                   {"serve_replay", RunServe},
                   {"stream_churn", RunStream}};
  auto it = workloads.find(args.workload);
  if (it == workloads.end()) return Usage("unknown --workload");

  const char* force_scalar = std::getenv("THRIFTY_FORCE_SCALAR");
  std::cout << "host: nproc=" << std::thread::hardware_concurrency()
            << " simd=" << thrifty::simd::TargetName()
            << " THRIFTY_FORCE_SCALAR="
            << (force_scalar != nullptr ? force_scalar : "unset")
            << " threads: bench=1 solver_jobs=1 composer_jobs=1"
            << " build=" << PERFBENCH_BUILD_TYPE << "\n";
  std::cout << "workload " << args.workload << " seed " << args.seed
            << " seconds " << Num(args.seconds) << " trace " << args.trace
            << "\n";

  SpanRecorder recorder;
  Outcome out;
  auto start = Clock::now();
  Status status = it->second(args, args.trace ? &recorder : nullptr, &out);
  out.Check(status.ok(), "workload ran to completion " + status.ToString());
  out.e2e.peak_rss_mb = PeakRssMiB();
  double wall = SecondsSince(start);

  for (const std::string& line : out.report) std::cout << line << "\n";
  if (args.trace) {
    PrintSpanTable(recorder);
    if (!args.trace_out.empty()) {
      Status written = WriteSpans(args.trace_out, args.workload, recorder);
      out.Check(written.ok(), "spans written " + written.ToString());
    }
  }
  for (const std::string& failure : out.failures) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }
  std::cout << "run wall " << Num(wall) << " s\n";
  if (g_kernel_samples > 0) {
    std::cout << "host factor (reference kernel mean / nominal) "
              << Num(g_kernel_s / g_kernel_samples / kKernelNominalS)
              << " over " << g_kernel_samples << " samples\n";
  }

  std::vector<Named> metrics =
      args.trace ? LayerMetrics(out) : EndToEndMetrics(out);
  if (args.trace) {
    std::cout << "per-layer metrics (value unit -> end-to-end metric / "
                 "workload it moves)\n";
    for (const Named& m : metrics) {
      std::cout << "  " << m.name << " = " << Num(m.value) << " " << m.unit
                << " -> " << m.moves << "\n";
    }
  }
  bool correct = out.failed == 0;
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (!perfbench::ValidMetricName(metrics[i].name)) {
      std::cerr << "invalid metric name " << metrics[i].name << "\n";
      return 1;
    }
    json << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
         << Num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
         << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}
