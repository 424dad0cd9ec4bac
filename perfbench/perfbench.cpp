// The repository benchmark: one workload per process, timed on the host
// clock and checked on the simulated clock.
//
//   perfbench --workload <paper_suite|serve_mix|serve_tiny_edf|city_storm>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// A run repeats measurement windows until --seconds have passed. Before
// every window it rebuilds the workload's layer objects (the set-up sample),
// then runs one fixed unit of work (the window) and checks every output of
// it. Host metrics report the fastest set-up, and as the window's time the
// sum of each of its work units' fastest time: interference on a shared host
// only ever adds time, so the minimum is the estimator that repeats across
// processes, and short units dodge it better than whole windows. They are
// scaled by a host-speed probe timed before every window (see
// probe_seconds; README.md in this directory has the measurements).
// Simulated metrics must be identical in every window of a run; a
// difference is reported as a correctness failure.
//
// --trace 1 alternates untraced windows with windows that record spans
// around every call the benchmark makes into a layer, then prints the
// per-layer metrics.
// The last line of stdout is always one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"
#include "src/analysis/network_lint.h"
#include "src/analysis/wcet.h"
#include "src/common/fixed_point.h"
#include "src/common/rng.h"
#include "src/integrity/integrity.h"
#include "src/kernels/network.h"
#include "src/rrm/engine.h"
#include "src/scenario/city.h"
#include "src/scenario/engine.h"
#include "src/serve/scheduler.h"
#include "src/translate/translate.h"

using namespace rnnasip;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kMhz = 500.0;              // paper's serving operating point
constexpr uint64_t kTtiCycles = 500'000;    // one 1 ms TTI at kMhz
constexpr int kMinWindows = 2;              // cross-window identity needs two

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <class F>
double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

/// FNV-1a over output halfwords: a compact witness that two windows served
/// the same bytes.
struct Hash {
  uint64_t h = 1469598103934665603ull;
  void add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  void add(const std::vector<int16_t>& v) {
    add(v.size());
    for (int16_t x : v) add(static_cast<uint16_t>(x));
  }
};

/// Deterministic key=value list; equality across windows is the check.
class Fingerprint {
 public:
  template <class T>
  Fingerprint& add(const char* key, T value) {
    std::ostringstream os;
    os.precision(17);
    os << key << '=' << value << ';';
    text_ += os.str();
    return *this;
  }
  const std::string& str() const { return text_; }

 private:
  std::string text_;
};

std::vector<int16_t> random_input(Rng& rng, int n) {
  std::vector<int16_t> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<int16_t>(quantize(rng.next_in(-1.0, 1.0)));
  return v;
}

/// Nearest-rank percentile of `v` (sorted copy).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// ---------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_us_per_request", "us"},
    {"sim_mcyc_per_s", "Mcyc/s"},
    {"peak_rss_mb", "MB"},
    {"sim_cycles_per_request", "cycles"},
    {"served_share", "ratio"},
    {"sim_goodput_per_s", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"iss.host_ns_per_sim_cycle", "ns"},
    {"iss.run_share", "ratio"},
    {"iss.sim_instrs_per_request", "instrs"},
    {"iss.sim_stall_share", "ratio"},
    {"rrm.request_setup_us", "us"},
    {"rrm.golden_us_per_request", "us"},
    {"rrm.wmmse_us_per_cell_tti", "us"},
    {"kernels.build_us_per_program", "us"},
    {"kernels.sim_cycles.a", "cycles"},
    {"kernels.sim_cycles.b", "cycles"},
    {"kernels.sim_cycles.c", "cycles"},
    {"kernels.sim_cycles.d", "cycles"},
    {"kernels.sim_cycles.e", "cycles"},
    {"kernels.speedup_err.b", "ratio"},
    {"kernels.speedup_err.c", "ratio"},
    {"kernels.speedup_err.d", "ratio"},
    {"kernels.speedup_err.e", "ratio"},
    {"translate.host_ns_per_sim_cycle", "ns"},
    {"translate.translate_ms", "ms"},
    {"analysis.static_bounds_ms", "ms"},
    {"serve.exec_us_per_request", "us"},
    {"serve.scheduler_self_us_per_request", "us"},
    {"serve.exec_share", "ratio"},
    {"serve.scheduler_self_share", "ratio"},
    {"serve.latency_p50_us", "us"},
    {"serve.latency_p99_us", "us"},
    {"serve.max_rate_per_s", "1/s"},
    {"serve.queue_wait_p99_us", "us"},
    {"serve.core_utilization", "ratio"},
    {"serve.batched_share", "ratio"},
    {"serve.batch_occupancy", "ratio"},
    {"serve.admission_reject_share", "ratio"},
    {"serve.deadline_miss_share", "ratio"},
    {"serve.brownout_transitions", "count"},
    {"fault.exec_failures", "count"},
    {"fault.host_overhead", "ratio"},
    {"integrity.detections", "count"},
    {"integrity.rollbacks", "count"},
    {"integrity.corrupted_blocked", "count"},
    {"integrity.host_overhead", "ratio"},
    {"scenario.host_ms_per_tti", "ms"},
    {"scenario.city_env_us_per_tti", "us"},
    {"scenario.wmmse_rate_ratio", "ratio"},
    {"scenario.retry_share", "ratio"},
    {"scenario.shed_share", "ratio"},
    {"scenario.fallback_share", "ratio"},
    {"scenario.recovery_tti", "tti"},
    {"trace.overhead_us_per_request", "us"},
    {"host.probe_ms", "ms"},
};

/// The metrics object of the result line. Every name of the chosen table
/// is emitted, in table order; a layer the workload bypasses reads 0.
class Report {
 public:
  template <size_t N>
  explicit Report(const MetricDef (&defs)[N]) : defs_(std::begin(defs), std::end(defs)) {}

  void set(const std::string& name, double value) {
    for (const MetricDef& d : defs_) {
      if (name == d.name) {
        values_[name] = value;
        return;
      }
    }
    std::fprintf(stderr, "perfbench: metric %s is not in the table\n", name.c_str());
    std::abort();
  }

  std::string json(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& d : defs_) {
      const auto it = values_.find(d.name);
      const double v = it == values_.end() ? 0.0 : it->second;
      char num[64];
      std::snprintf(num, sizeof num, "%.17g", std::isfinite(v) ? v : 0.0);
      out += first ? "" : ", ";
      out += "\"" + std::string(d.name) + "\": {\"value\": " + num +
             ", \"unit\": \"" + d.unit + "\"}";
      first = false;
    }
    out += "}}";
    return out;
  }

 private:
  std::vector<MetricDef> defs_;
  std::map<std::string, double> values_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ------------------------------------------------------------ host probe

/// Host-speed probe: fixed work of the benchmark's own (a dependent
/// xorshift chain, about 50 ms), timed before every window. Host-time
/// end-to-end metrics are scaled by kProbeReferenceS / (the run's fastest
/// probe), i.e. reported at the reference VM's speed. On a shared VM whole
/// runs fall into slow phases, 20 s to minutes long, in which every window
/// is 1.4-1.9x slower; the fastest window cannot escape those, and the
/// probe tracks about half of the slowdown (README.md in this directory has
/// the measurements). No code under src/ runs in the probe, so a change
/// there cannot move it.
double probe_seconds() {
  return timed([] {
    uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 24'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    if (x == 0) std::abort();  // never true; keeps the chain from being elided
  });
}

/// Fastest probe on the reference VM (4-vCPU Xeon at 2.0 GHz, quiet).
constexpr double kProbeReferenceS = 0.050;

// ---------------------------------------------------------------- runner

/// One window's simulated results.
struct Outcome {
  uint64_t offered = 0;
  uint64_t served = 0;      ///< served and verified bit-exact
  double sim_cycles = 0;    ///< executed cycles, each counted once
  double goodput_per_s = 0; ///< deadline-meeting served requests per sim second
  std::string fingerprint;  ///< every simulated quantity of the window
  std::string error;        ///< first correctness violation
};

struct Measured {
  double setup_s = std::numeric_limits<double>::infinity();
  std::vector<double> fastest_units;  ///< per work unit, over all windows
  std::vector<int> window_ids;        ///< span-log ids of all these windows
  uint64_t attempted = 0;
  Outcome first;

  /// Host time of one window: every work unit at its fastest.
  double window_s() const {
    return std::accumulate(fastest_units.begin(), fastest_units.end(), 0.0);
  }
};

/// A run's windows: untraced ones and, with a span log, traced ones
/// interleaved one for one, so both kinds see the same host conditions.
struct Run {
  Measured plain;
  Measured traced;
  double probe_s = std::numeric_limits<double>::infinity();  ///< fastest probe
  std::string error;  ///< first correctness violation of any window
};

/// Repeat set-up + window until `budget_s` has passed. A workload W has
///   setup()      rebuild the layer objects (timed as set-up),
///   run(log)     one window of work, timing each of its fixed work units
///                (unit_seconds(): paper_suite's 50 requests, city_storm's
///                four storm runs, a serving workload's one scheduler run),
///   check()      verify the window's outputs (untimed),
///   replay(log)  traced windows only: re-time the layers the window called
///                internally, outside the window (untimed); returns the first
///                divergence from the window's results, empty if none.
/// Every window must simulate exactly what the first one did.
template <class W>
Run measure(W& w, double budget_s, SpanLog* log) {
  Run run;
  const auto t0 = Clock::now();
  const auto enough = [&] {
    return seconds_since(t0) >= budget_s &&
           run.plain.window_ids.size() >= kMinWindows &&
           (!log || run.traced.window_ids.size() >= kMinWindows);
  };
  for (int id = 1; run.error.empty() && !enough(); ++id) {
    SpanLog* wlog = (log && id % 2 == 0) ? log : nullptr;
    Measured& m = wlog ? run.traced : run.plain;
    if (wlog) wlog->set_window(id);
    run.probe_s = std::min(run.probe_s, probe_seconds());
    const double setup = timed([&] { w.setup(); });
    {
      Scope s(wlog, "window");
      w.run(wlog);
    }
    Outcome o = w.check();
    if (wlog && o.error.empty()) o.error = w.replay(wlog);
    m.window_ids.push_back(id);
    m.attempted += o.offered;
    m.setup_s = std::min(m.setup_s, setup);
    const std::vector<double>& units = w.unit_seconds();
    if (m.fastest_units.empty()) m.fastest_units = units;
    for (size_t k = 0; k < units.size(); ++k) {
      m.fastest_units[k] = std::min(m.fastest_units[k], units[k]);
    }
    if (!o.error.empty()) {
      run.error = o.error;
    } else if (id > 1 && o.fingerprint != run.plain.first.fingerprint) {
      run.error = "simulated results differ between windows:\n  " +
                  run.plain.first.fingerprint + "\n  " + o.fingerprint;
    }
    if (m.window_ids.size() == 1) m.first = std::move(o);
  }
  return run;
}

/// Fastest total of span `name` over the windows of `m`. Every window does
/// the same work, so as with whole windows the minimum is the estimator.
double fastest(const SpanLog& log, const Measured& m, const std::string& name) {
  double best = std::numeric_limits<double>::infinity();
  for (int w : m.window_ids) {
    const auto t = log.times(w);
    const auto it = t.find(name);
    if (it != t.end()) best = std::min(best, it->second.total_s);
  }
  return best;
}

/// Median over the windows of `m` of span `part`'s share of span `whole`.
/// The two spans of one window run back to back under the same host
/// conditions, so their ratio is steadier than a ratio of two minima.
double median_share(const SpanLog& log, const Measured& m, const std::string& part,
                    const std::string& whole) {
  std::vector<double> shares;
  for (int w : m.window_ids) {
    auto t = log.times(w);
    shares.push_back(t[part].total_s / t[whole].total_s);
  }
  return percentile(shares, 50);
}

void end_to_end(const Run& run, Report& rep) {
  const Measured& m = run.plain;
  const Outcome& o = m.first;
  const double scale = kProbeReferenceS / run.probe_s;
  rep.set("setup_s", m.setup_s * scale);
  rep.set("host_us_per_request", m.window_s() * scale * 1e6 / static_cast<double>(o.offered));
  rep.set("sim_mcyc_per_s", o.sim_cycles / (m.window_s() * scale) / 1e6);
  rep.set("peak_rss_mb", peak_rss_mb());
  rep.set("sim_cycles_per_request", o.sim_cycles / static_cast<double>(o.served));
  rep.set("served_share", static_cast<double>(o.served) / static_cast<double>(o.offered));
  rep.set("sim_goodput_per_s", o.goodput_per_s);
}

/// Per-program host cost of the three program-preparation layers, measured
/// on the workload's own programs (fastest of `reps` per program).
void program_costs(const std::vector<std::pair<const rrm::RrmNetwork*, kernels::OptLevel>>& progs,
                   bool integrity, int reps, Report& rep) {
  const iss::Core::Config cfg;
  const auto tanh_tbl = activation::PlaTable::build(cfg.tanh_spec);
  const auto sig_tbl = activation::PlaTable::build(cfg.sig_spec);
  double build_s = 0, translate_s = 0, bounds_s = 0;
  for (const auto& [net, level] : progs) {
    double b = 1e9, t = 1e9, s = 1e9;
    for (int i = 0; i < reps; ++i) {
      iss::Memory mem(16u << 20);
      std::optional<kernels::BuiltNetwork> built;
      b = std::min(b, timed([&] {
        built.emplace(net->build(&mem, level, tanh_tbl, sig_tbl, 8, 0, integrity));
      }));
      t = std::min(t, timed([&] {
        const auto tr = translate::translate(built->program, analysis::memory_map_of(*built), cfg);
        if (!tr.ok()) std::abort();
      }));
      s = std::min(s, timed([&] { (void)analysis::static_bounds(*built, cfg.timing); }));
    }
    build_s += b;
    translate_s += t;
    bounds_s += s;
  }
  const double n = static_cast<double>(progs.size());
  rep.set("kernels.build_us_per_program", build_s * 1e6 / n);
  rep.set("translate.translate_ms", translate_s * 1e3 / n);
  rep.set("analysis.static_bounds_ms", bounds_s * 1e3 / n);
}

// ------------------------------------------------------------ paper_suite

/// Closed loop, one request at a time: rrm::Engine on the ISS runs all 10
/// suite networks at each of levels a-e with verification on. One window
/// is one 5-level sweep (50 requests). Inputs come from the seed; the
/// network parameters are the suite's fixed ones, so the per-level totals
/// are the Table I quantities.
class PaperSuite {
 public:
  explicit PaperSuite(uint64_t seed) {
    Rng rng(derive_stream(seed, 1));
    rrm::Engine probe;
    for (const auto& def : rrm::rrm_suite()) {
      names_.push_back(def.name);
      inputs_.push_back(random_input(rng, probe.network(def.name).input_count()));
    }
  }

  void setup() {
    engine_ = std::make_unique<rrm::Engine>();
    for (const auto& n : names_) (void)engine_->network(n);
  }

  void run(SpanLog* log) {
    records_.clear();
    units_.clear();
    for (const auto level : kernels::kAllOptLevels) {
      for (size_t i = 0; i < names_.size(); ++i) {
        units_.push_back(timed([&] {
          records_.push_back(log ? replay_request(log, i, level) : engine_request(i, level));
        }));
      }
    }
  }

  const std::vector<double>& unit_seconds() const { return units_; }

  Outcome check() {
    Outcome o;
    Fingerprint fp;
    Hash h;
    stats_ = iss::ExecStats{};
    level_cycles_.fill(0);
    latencies_.clear();
    for (size_t k = 0; k < records_.size(); ++k) {
      const Record& r = records_[k];
      if (!r.ok && o.error.empty()) {
        o.error = "paper_suite: " + names_[k % names_.size()] +
                  " did not verify against the golden model";
      }
      ++o.offered;
      o.served += r.ok ? 1 : 0;
      o.sim_cycles += static_cast<double>(r.cycles);
      level_cycles_[k / names_.size()] += r.cycles;
      stats_.merge(r.stats);
      latencies_.push_back(static_cast<double>(r.cycles) / kMhz);
      h.add(r.cycles);
      h.add(r.instrs);
      h.add(r.outputs);
    }
    // Closed loop on one core: simulated time is the sum of execution times.
    o.goodput_per_s = static_cast<double>(o.served) / (o.sim_cycles / (kMhz * 1e6));
    for (size_t l = 0; l < level_cycles_.size(); ++l) fp.add("cycles", level_cycles_[l]);
    fp.add("instrs", stats_.total_instrs()).add("outputs", h.h);
    o.fingerprint = fp.str();
    return o;
  }

  std::string replay(SpanLog*) { return {}; }

  void per_layer(const Measured& traced, SpanLog& log, Report& rep) {
    const double reqs = static_cast<double>(records_.size());
    const double cycles = static_cast<double>(stats_.total_cycles());
    rep.set("iss.host_ns_per_sim_cycle", fastest(log, traced, "iss.run") * 1e9 / cycles);
    rep.set("iss.run_share", median_share(log, traced, "iss.run", "window"));
    rep.set("iss.sim_instrs_per_request", static_cast<double>(stats_.total_instrs()) / reqs);
    rep.set("iss.sim_stall_share", static_cast<double>(stats_.total_stall_cycles()) / cycles);
    rep.set("rrm.request_setup_us", fastest(log, traced, "rrm.request_setup") * 1e6 / reqs);
    rep.set("rrm.golden_us_per_request", fastest(log, traced, "rrm.golden") * 1e6 / reqs);
    rep.set("serve.latency_p50_us", percentile(latencies_, 50));
    rep.set("serve.latency_p99_us", percentile(latencies_, 99));
    static constexpr double kPaperSpeedup[] = {1.0, 4.4, 8.4, 14.3, 15.0};
    static constexpr const char* kLetters = "abcde";
    for (size_t l = 0; l < level_cycles_.size(); ++l) {
      const std::string letter(1, kLetters[l]);
      rep.set("kernels.sim_cycles." + letter, static_cast<double>(level_cycles_[l]));
      if (l == 0) continue;
      const double speedup = static_cast<double>(level_cycles_[0]) /
                             static_cast<double>(level_cycles_[l]);
      rep.set("kernels.speedup_err." + letter, speedup / kPaperSpeedup[l] - 1.0);
    }
    // Build cost comes from the traced window; translation and static
    // bounds are measured on the level-e programs the suite ran.
    std::vector<std::pair<const rrm::RrmNetwork*, kernels::OptLevel>> progs;
    for (const auto& n : names_) {
      progs.emplace_back(&engine_->network(n), kernels::OptLevel::kInputTiling);
    }
    program_costs(progs, false, 3, rep);
    rep.set("kernels.build_us_per_program", fastest(log, traced, "kernels.build") * 1e6 / reqs);
  }

 private:
  struct Record {
    bool ok = false;
    uint64_t cycles = 0;
    uint64_t instrs = 0;
    iss::ExecStats stats;
    std::vector<int16_t> outputs;
  };

  Record engine_request(size_t i, kernels::OptLevel level) {
    rrm::Request req;
    req.network = names_[i];
    req.level = level;
    req.input = inputs_[i];
    req.verify = true;
    const rrm::Response resp = engine_->run(req);
    return Record{resp.ok(), resp.result.cycles, resp.result.instrs, resp.result.stats,
                  resp.outputs};
  }

  /// The same request as Engine::run, issued layer by layer through the
  /// public entry points so each layer gets its own span. The simulated
  /// results must equal the engine's (the window fingerprint checks it).
  Record replay_request(SpanLog* log, size_t i, kernels::OptLevel level) {
    const rrm::RrmNetwork& net = engine_->network(names_[i]);
    const iss::Core::Config& cfg = engine_->config().core_config;
    std::unique_ptr<iss::Memory> mem;
    std::unique_ptr<iss::Core> core;
    {
      Scope s(log, "rrm.request_setup");
      mem = std::make_unique<iss::Memory>(16u << 20);
      core = std::make_unique<iss::Core>(mem.get(), cfg);
    }
    std::optional<kernels::BuiltNetwork> built;
    {
      Scope s(log, "kernels.build");
      built.emplace(net.build(mem.get(), level, core->tanh_table(), core->sig_table(),
                              engine_->config().max_tile));
      core->load_program(built->program);
      kernels::reset_state(*mem, *built);
    }
    kernels::ForwardRun fr;
    {
      Scope s(log, "iss.run");
      fr = kernels::try_run_forward(*core, *mem, *built, inputs_[i]);
    }
    std::vector<int16_t> want;
    {
      Scope s(log, "rrm.golden");
      const auto tanh_ref = activation::PlaTable::build(cfg.tanh_spec);
      const auto sig_ref = activation::PlaTable::build(cfg.sig_spec);
      rrm::RrmNetwork::Golden golden(net, tanh_ref, sig_ref);
      want = golden.forward(inputs_[i]);
    }
    const bool ok = fr.ok() && fr.outputs == want;
    return Record{ok, core->stats().total_cycles(), core->stats().total_instrs(),
                  core->stats(), std::move(fr.outputs)};
  }

  std::vector<std::string> names_;
  std::vector<std::vector<int16_t>> inputs_;
  std::unique_ptr<rrm::Engine> engine_;
  std::vector<Record> records_;
  std::vector<double> units_;
  iss::ExecStats stats_;
  std::array<uint64_t, 5> level_cycles_{};
  std::vector<double> latencies_;
};

// ------------------------------------------------------- serve_* workloads

/// An open-loop Poisson stream in simulated time over a serve::Cluster on
/// the translated backend, drained by serve::Scheduler.
constexpr int kServeCores = 4;

struct ServeSpec {
  std::vector<std::string> networks;
  kernels::OptLevel level = kernels::OptLevel::kInputTiling;
  int batch = 1;
  serve::Policy policy = serve::Policy::kFifo;
  serve::Admission admission = serve::Admission::kCalibrated;
  double load = 1.0;           ///< offered rate / single-program capacity
  int requests = 1000;         ///< per window
  double deadline_execs = 0;   ///< mean deadline slack in executions; 0 = none
  bool max_rate_ladder = false;
};

class ServeWorkload {
 public:
  ServeWorkload(ServeSpec spec, uint64_t seed) : spec_(std::move(spec)), seed_(seed) {
    setup();
    double sum = 0;
    for (const auto& n : spec_.networks) {
      est_[n] = cluster_->estimated_single_cycles(n, spec_.level);
      sum += static_cast<double>(est_[n]);
    }
    mean_exec_cycles_ = sum / static_cast<double>(spec_.networks.size());
    workload_ = make_jobs(spec_.load, spec_.requests);
    // Reference outputs: the host golden model, fresh recurrent state per
    // request (what every serving execution starts from).
    std::map<std::string, std::unique_ptr<rrm::RrmNetwork::Golden>> goldens;
    for (const auto& n : spec_.networks) {
      goldens[n] = std::make_unique<rrm::RrmNetwork::Golden>(
          cluster_->network(n), cluster_->tanh_table(), cluster_->sig_table());
    }
    for (const serve::Job& j : workload_.jobs) {
      auto& g = *goldens[j.network];
      g.reset();
      expected_.push_back(g.forward(j.input));
    }
  }

  /// Cluster plus the warm-up that fills its lazy caches: calibration runs,
  /// certified WCET (deadline policies), and the translated image of every
  /// flavor the scheduler can dispatch.
  void setup() {
    serve::ClusterConfig cc;
    cc.cores = kServeCores;
    cc.level = spec_.level;
    cc.batch = spec_.batch;
    cc.backend = ExecBackend::kTranslated;
    cluster_ = std::make_unique<serve::Cluster>(cc, spec_.networks);
    Rng rng(1);
    for (const auto& n : spec_.networks) {
      (void)cluster_->estimated_single_cycles(n, spec_.level);
      if (spec_.policy == serve::Policy::kDeadline) {
        (void)cluster_->provable_single_cycles(n, spec_.level);
      }
      const auto in = random_input(rng, cluster_->network(n).input_count());
      for (int c = 0; c < kServeCores; ++c) {
        (void)cluster_->run_single(c, n, in);
        if (spec_.batch > 1 && cluster_->batchable(n)) {
          const std::vector<std::vector<int16_t>> one = {in};
          (void)cluster_->run_batched(c, n, one);
        }
      }
    }
  }

  void run(SpanLog* log) {
    Scope s(log, "serve.scheduler");
    units_ = {timed([&] {
      serve::Scheduler sched(cluster_.get(), scheduler_config());
      result_ = sched.run(workload_);
    })};
  }

  const std::vector<double>& unit_seconds() const { return units_; }

  Outcome check() {
    const serve::ServeResult& r = result_;
    Outcome o;
    o.offered = workload_.jobs.size();
    Hash h;
    double cycles = 0;
    for (const serve::Completion& c : r.completions) {
      if (c.outputs != expected_[c.id] && o.error.empty()) {
        o.error = "serve: request " + std::to_string(c.id) + " (" + c.network +
                  ") served outputs that differ from the golden model";
      }
      // Every member of a batched group carries the whole group's cycles.
      cycles += static_cast<double>(c.exec_cycles) / c.group;
      h.add(c.id);
      h.add(c.outputs);
    }
    o.served = r.completions.size();
    o.sim_cycles = cycles;
    o.goodput_per_s = r.goodput_per_s(kMhz);
    uint64_t busy = 0;
    for (uint64_t b : r.core_busy) busy += b;
    if (std::abs(cycles - static_cast<double>(busy)) > 1e-6 * cycles + 1.0 && o.error.empty()) {
      o.error = "serve: per-request cycles do not sum to the cores' busy cycles";
    }
    if (o.served + r.rejections.size() + r.failed.size() != o.offered && o.error.empty()) {
      o.error = "serve: served + rejected + failed != offered";
    }
    Fingerprint fp;
    fp.add("served", o.served).add("rejected", r.rejections.size())
        .add("failed", r.failed.size()).add("misses", r.deadline_misses)
        .add("batched_execs", r.batched_execs).add("single_execs", r.single_execs)
        .add("makespan", r.makespan).add("busy", busy)
        .add("p50", r.latency_percentile(50)).add("p99", r.latency_percentile(99))
        .add("outputs", h.h);
    o.fingerprint = fp.str();
    return o;
  }

  /// Re-run every served execution directly through the Cluster, grouped
  /// as the scheduler dispatched it, so execution time separates from the
  /// scheduler's own time. Cycles and outputs must match the window's.
  std::string replay(SpanLog* log) {
    std::map<std::pair<uint64_t, int>, std::vector<const serve::Completion*>> execs;
    for (const serve::Completion& c : result_.completions) {
      execs[{c.start, c.core}].push_back(&c);
    }
    Scope all(log, "serve.replay");
    for (const auto& [key, members] : execs) {
      const serve::Completion& head = *members.front();
      serve::ExecResult er;
      if (head.group > 1) {
        std::vector<std::vector<int16_t>> inputs;
        for (const auto* m : members) inputs.push_back(workload_.jobs[m->id].input);
        Scope s(log, "serve.exec");
        er = cluster_->run_batched(head.core, head.network, inputs);
      } else {
        Scope s(log, "serve.exec");
        er = cluster_->run_single_at(head.core, head.level, head.network,
                                     workload_.jobs[head.id].input);
      }
      bool same = er.ok() && er.cycles == head.exec_cycles &&
                  er.outputs.size() == members.size();
      for (size_t i = 0; same && i < members.size(); ++i) {
        same = er.outputs[i] == members[i]->outputs;
      }
      if (!same) return "serve: replay of request " + std::to_string(head.id) + " diverged";
    }
    return {};
  }

  void per_layer(const Measured& traced, SpanLog& log, Report& rep) {
    const serve::ServeResult& r = result_;
    const double offered = static_cast<double>(workload_.jobs.size());
    const double served = static_cast<double>(r.completions.size());
    // The fastest scheduler window split by the executions' median share
    // of it; the self time is the rest of the window.
    const double sched = fastest(log, traced, "serve.scheduler");
    const double share = median_share(log, traced, "serve.exec", "serve.scheduler");
    rep.set("translate.host_ns_per_sim_cycle",
            fastest(log, traced, "serve.exec") * 1e9 / traced.first.sim_cycles);
    rep.set("serve.exec_us_per_request", share * sched * 1e6 / offered);
    rep.set("serve.scheduler_self_us_per_request", (1 - share) * sched * 1e6 / offered);
    rep.set("serve.exec_share", share);
    rep.set("serve.scheduler_self_share", 1 - share);
    rep.set("serve.latency_p50_us", static_cast<double>(r.latency_percentile(50)) / kMhz);
    rep.set("serve.latency_p99_us", static_cast<double>(r.latency_percentile(99)) / kMhz);
    std::vector<double> waits;
    for (const auto& c : r.completions) waits.push_back(static_cast<double>(c.wait_cycles) / kMhz);
    rep.set("serve.queue_wait_p99_us", percentile(waits, 99));
    double util = 0;
    for (int c = 0; c < r.cores; ++c) util += r.utilization(c);
    rep.set("serve.core_utilization", util / r.cores);
    rep.set("serve.batched_share", static_cast<double>(r.batched_requests) / served);
    rep.set("serve.batch_occupancy", r.batched_execs > 0 ? r.batch_occupancy() : 0.0);
    rep.set("serve.admission_reject_share", static_cast<double>(r.rejections.size()) / offered);
    rep.set("serve.deadline_miss_share", static_cast<double>(r.deadline_misses) / served);
    std::vector<std::pair<const rrm::RrmNetwork*, kernels::OptLevel>> progs;
    for (const auto& n : spec_.networks) progs.emplace_back(&cluster_->network(n), spec_.level);
    program_costs(progs, false, 3, rep);
    if (spec_.max_rate_ladder) rep.set("serve.max_rate_per_s", max_rate_per_s());
  }

 private:
  serve::SchedulerConfig scheduler_config() const {
    serve::SchedulerConfig sc;
    sc.policy = spec_.policy;
    sc.admission = spec_.admission;
    return sc;
  }

  /// Poisson arrivals at `load` x single-program capacity; networks drawn
  /// as shuffled rounds of the whole list, so every window serves the exact
  /// mix (a uniform draw would move cycles per request from seed to seed).
  serve::Workload make_jobs(double load, int requests) const {
    Rng arrivals(derive_stream(seed_, 1));
    Rng order(derive_stream(seed_, 2));
    Rng data(derive_stream(seed_, 3));
    Rng slack(derive_stream(seed_, 4));
    const double mean_gap = mean_exec_cycles_ / (kServeCores * load);
    serve::Workload w;
    std::vector<size_t> round;
    double t = 0;
    for (int i = 0; i < requests; ++i) {
      if (round.empty()) {
        for (size_t k = 0; k < spec_.networks.size(); ++k) round.push_back(k);
        for (size_t k = round.size(); k > 1; --k) {
          std::swap(round[k - 1], round[order.next_below(static_cast<uint32_t>(k))]);
        }
      }
      serve::Job j;
      j.id = static_cast<uint64_t>(i);  // the scheduler indexes by id
      j.network = spec_.networks[round.back()];
      round.pop_back();
      t += -mean_gap * std::log(1.0 - arrivals.next_double());
      j.arrival = static_cast<uint64_t>(t);
      if (spec_.deadline_execs > 0) {
        const double s = (0.5 + slack.next_double()) * spec_.deadline_execs *
                         static_cast<double>(est_.at(j.network));
        j.deadline = j.arrival + static_cast<uint64_t>(s);
      }
      j.input = random_input(data, cluster_->network(j.network).input_count());
      w.jobs.push_back(std::move(j));
    }
    return w;
  }

  /// Highest rate on a fixed geometric ladder (0.5x-2x single-program
  /// capacity, 16 rungs) at which every request is served and simulated
  /// p99 latency stays within one TTI. Bisection assumes a monotone
  /// criterion; each probe serves a window-sized stream at that rate.
  double max_rate_per_s() {
    constexpr int kRungs = 16;
    const auto factor = [](int k) { return 0.5 * std::pow(4.0, k / double(kRungs - 1)); };
    const auto passes = [&](int k) {
      const serve::Workload w = make_jobs(factor(k), spec_.requests);
      serve::Scheduler sched(cluster_.get(), scheduler_config());
      const serve::ServeResult r = sched.run(w);
      return r.completions.size() == w.jobs.size() && r.latency_percentile(99) <= kTtiCycles;
    };
    int lo = -1, hi = kRungs;  // passes(lo) holds, passes(hi) fails
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      (passes(mid) ? lo : hi) = mid;
    }
    if (lo < 0) return 0;
    const double capacity_per_s = kServeCores / mean_exec_cycles_ * kMhz * 1e6;
    return factor(lo) * capacity_per_s;
  }

  ServeSpec spec_;
  uint64_t seed_;
  std::unique_ptr<serve::Cluster> cluster_;
  std::map<std::string, uint64_t> est_;
  double mean_exec_cycles_ = 0;
  serve::Workload workload_;
  std::vector<std::vector<int16_t>> expected_;
  serve::ServeResult result_;
  std::vector<double> units_;
};

ServeSpec serve_mix_spec() {
  ServeSpec s;
  for (const auto& def : rrm::rrm_suite()) s.networks.push_back(def.name);
  s.level = kernels::OptLevel::kInputTiling;
  s.batch = 4;
  s.policy = serve::Policy::kBatched;
  s.load = 1.5;
  s.requests = 1200;
  s.max_rate_ladder = true;
  return s;
}

ServeSpec serve_tiny_edf_spec() {
  ServeSpec s;
  s.networks = {"ahmed19"};
  s.level = kernels::OptLevel::kInputTiling;
  s.policy = serve::Policy::kDeadline;
  s.admission = serve::Admission::kProvable;
  s.load = 1.3;
  s.requests = 20'000;
  s.deadline_execs = 4.0;
  return s;
}

// ------------------------------------------------------------- city_storm

/// The closed-loop storm run of bench_scenario: 8 cells, 96 TTIs, a 10x
/// surge plus a 2000x SEU storm on cell 2 over TTIs 32-56, brownout on,
/// ABFT detection + rollback. One window is one ScenarioEngine::run.
/// The city itself (geometry, fading, flash crowds) is bench_scenario's
/// default one; `seed` drives the per-request observation jitter and every
/// fault campaign.
constexpr uint64_t kCitySeed = 0x5CE11A;

scenario::ScenarioConfig city_config(uint64_t seed, bool faults) {
  scenario::ScenarioConfig cfg;
  cfg.city.cells = 8;
  cfg.city.base_rate = 2.0;
  cfg.city.surges = {{2, 32, 56, 10.0}};
  cfg.brownout_cfg.shed_pressure = 1.25;
  cfg.city.storms = {{2, 32, 56, 2000.0}};
  if (faults) {
    cfg.base_fault.rate_of(fault::Target::kTcdm) = 1e-7;
    cfg.base_fault.rate_of(fault::Target::kRegFile) = 5e-7;
    cfg.base_fault.rate_of(fault::Target::kPlaLut) = 5e-5;
  }
  cfg.ttis = 96;
  cfg.brownout = true;
  cfg.city.seed = derive_stream(kCitySeed, 100);
  cfg.base_fault.seed = seed;
  cfg.seed = seed;
  return cfg;
}

class CityStorm {
 public:
  /// Storm runs per window, each under its own seed derived from the
  /// workload seed. The storm's retries, rollbacks and shedding make one
  /// 96-TTI run's served share move by about 10% from seed to seed; the
  /// window reports the sum over four.
  static constexpr int kRuns = 4;

  explicit CityStorm(uint64_t seed) : seed_(seed) {
    for (int k = 0; k < kRuns; ++k) cfgs_.push_back(city_config(derive_stream(seed, k), true));
  }

  /// One ScenarioEngine per run (it builds its cluster and calibrates the
  /// primary flavor) plus the lazy per-level WCET, calibration and watchdog
  /// derivations its run would otherwise do inside the window. The engine
  /// exposes its cluster read-only; these calls only fill caches.
  void setup() {
    engines_.clear();
    before_.clear();
    for (const auto& cfg : cfgs_) {
      engines_.push_back(std::make_unique<scenario::ScenarioEngine>(cfg));
      serve::Cluster& cl = lanes(*engines_.back());
      for (const auto level : {cfg.level, cfg.fallback_level}) {
        (void)cl.estimated_single_cycles(cfg.network, level);
        (void)cl.provable_single_cycles(cfg.network, level);
        (void)cl.watchdog_cycles(cfg.network, level);
      }
      before_.push_back(lane_stats(*engines_.back()));
    }
  }

  void run(SpanLog* log) {
    results_.clear();
    units_.clear();
    for (auto& e : engines_) {
      Scope s(log, "scenario.run");
      units_.push_back(timed([&] { results_.push_back(e->run()); }));
    }
  }

  const std::vector<double>& unit_seconds() const { return units_; }

  Outcome check() {
    Outcome o;
    t_ = Totals{};
    Fingerprint fp;
    for (size_t k = 0; k < results_.size(); ++k) {
      const scenario::ScenarioResult& r = results_[k];
      const iss::ExecStats after = lane_stats(*engines_[k]);
      const uint64_t cycles = after.total_cycles() - before_[k].total_cycles();
      t_.cycles += cycles;
      t_.instrs += after.total_instrs() - before_[k].total_instrs();
      t_.stalls += after.total_stall_cycles() - before_[k].total_stall_cycles();
      t_.requests += r.requests;
      t_.served += r.served;
      t_.met += r.served - r.deadline_misses_admitted;
      t_.retries += r.retries;
      t_.shed += r.shed_rejected;
      t_.fallback += r.served_fallback;
      t_.exec_failures += r.exec_failures;
      t_.detections += r.integrity_detections;
      t_.rollbacks += r.integrity_rollbacks;
      t_.blocked += r.corrupted_blocked;
      t_.transitions += r.transitions.size();
      t_.recovery += r.recovery_tti;
      t_.achieved += r.achieved_total;
      t_.oracle += r.oracle_total;
      if (r.silent_to_env != 0) o.error = "city_storm: corrupted decisions reached the city";
      if (r.deadline_misses_admitted != 0) o.error = "city_storm: admitted deadline misses";
      if (r.served + r.shed_rejected + r.admission_rejected + r.failed + r.unserved_at_end !=
          r.requests) {
        o.error = "city_storm: request accounting does not add up";
      }
      fp.add("requests", r.requests).add("served", r.served).add("shed", r.shed_rejected)
          .add("rejected", r.admission_rejected).add("failed", r.failed)
          .add("retries", r.retries).add("detections", r.integrity_detections)
          .add("rollbacks", r.integrity_rollbacks).add("blocked", r.corrupted_blocked)
          .add("recovery", r.recovery_tti).add("ratio", r.rate_ratio()).add("cycles", cycles);
    }
    o.offered = t_.requests;
    o.served = t_.served;
    o.sim_cycles = static_cast<double>(t_.cycles);
    const double sim_s = static_cast<double>(kRuns) * cfgs_[0].ttis *
                         static_cast<double>(engines_[0]->tti_cycles()) / (kMhz * 1e6);
    o.goodput_per_s = static_cast<double>(t_.met) / sim_s;
    o.fingerprint = fp.str();
    return o;
  }

  std::string replay(SpanLog*) { return {}; }

  void per_layer(const Measured& traced, SpanLog& log, Report& rep) {
    const double requests = static_cast<double>(t_.requests);
    const double storm_s = fastest(log, traced, "scenario.run");
    rep.set("iss.sim_instrs_per_request", static_cast<double>(t_.instrs) / t_.served);
    rep.set("iss.sim_stall_share", static_cast<double>(t_.stalls) / static_cast<double>(t_.cycles));
    rep.set("fault.exec_failures", static_cast<double>(t_.exec_failures));
    rep.set("integrity.detections", static_cast<double>(t_.detections));
    rep.set("integrity.rollbacks", static_cast<double>(t_.rollbacks));
    rep.set("integrity.corrupted_blocked", static_cast<double>(t_.blocked));
    rep.set("scenario.host_ms_per_tti", storm_s * 1e3 / (kRuns * cfgs_[0].ttis));
    rep.set("scenario.wmmse_rate_ratio", t_.achieved / t_.oracle);
    rep.set("scenario.retry_share", static_cast<double>(t_.retries) / requests);
    rep.set("scenario.shed_share", static_cast<double>(t_.shed) / requests);
    rep.set("scenario.fallback_share", static_cast<double>(t_.fallback) / t_.served);
    rep.set("scenario.recovery_tti", static_cast<double>(t_.recovery) / kRuns);
    rep.set("serve.brownout_transitions", static_cast<double>(t_.transitions));

    // Host overhead of the fault layer per simulated cycle: the storm runs
    // against the same cities with SEU rates at zero (which serve more of
    // their requests, so per-request time would mix in a different load),
    // alternated so that both see the same host conditions.
    std::vector<scenario::ScenarioConfig> calm;
    for (int k = 0; k < kRuns; ++k) calm.push_back(city_config(derive_stream(seed_, k), false));
    double storm = 1e9, calm_s = 1e9;
    for (int i = 0; i < 3; ++i) {
      storm = std::min(storm, seconds_per_cycle(cfgs_));
      calm_s = std::min(calm_s, seconds_per_cycle(calm));
    }
    rep.set("fault.host_overhead", storm / calm_s - 1.0);

    environment_costs(rep);
    decision_net_costs(rep);
  }

 private:
  struct Totals {
    uint64_t cycles = 0, instrs = 0, stalls = 0;
    uint64_t requests = 0, served = 0, met = 0, retries = 0, shed = 0, fallback = 0;
    uint64_t exec_failures = 0, detections = 0, rollbacks = 0, blocked = 0, transitions = 0;
    int64_t recovery = 0;
    double achieved = 0, oracle = 0;
  };

  static serve::Cluster& lanes(const scenario::ScenarioEngine& e) {
    return const_cast<serve::Cluster&>(e.cluster());
  }

  static iss::ExecStats lane_stats(const scenario::ScenarioEngine& e) {
    iss::ExecStats s;
    for (int c = 0; c < lanes(e).cores(); ++c) s.merge(lanes(e).core(c).stats());
    return s;
  }

  static double seconds_per_cycle(const std::vector<scenario::ScenarioConfig>& cfgs) {
    double s = 0;
    uint64_t cycles = 0;
    for (const auto& cfg : cfgs) {
      scenario::ScenarioEngine e(cfg);
      s += timed([&] { (void)e.run(); });
      cycles += lane_stats(e).total_cycles();
    }
    return s / static_cast<double>(cycles);
  }

  /// The City environment alone, driven through the calls the engine makes
  /// per TTI and cell (decisions held stale), with the WMMSE oracle timed
  /// separately.
  void environment_costs(Report& rep) const {
    double best_env = 1e9, best_oracle = 1e9;
    for (int rep_i = 0; rep_i < 3; ++rep_i) {
      const scenario::ScenarioConfig& cfg = cfgs_[0];
      scenario::City city(cfg.city);
      double oracle = 0;
      const double env = timed([&] {
        for (int tti = 0; tti < cfg.ttis; ++tti) {
          (void)city.draw_arrivals(tti);
          for (int c = 0; c < city.cell_count(); ++c) {
            (void)city.observe(c, 8);
            city.carry_stale(c);
            const double a = city.achieved_rate(c);
            double o = 0;
            oracle += timed([&] { o = city.oracle_rate(c); });
            city.step_env(c, o > 0 ? std::clamp(1.0 - a / o, 0.0, 1.0) : 0.0);
          }
        }
      });
      best_env = std::min(best_env, env);
      best_oracle = std::min(best_oracle, oracle);
    }
    const double cell_ttis = static_cast<double>(cfgs_[0].ttis) * cfgs_[0].city.cells;
    rep.set("scenario.city_env_us_per_tti", best_env * 1e6 / cfgs_[0].ttis);
    rep.set("rrm.wmmse_us_per_cell_tti", best_oracle * 1e6 / cell_ttis);
  }

  /// The decision network alone: ISS forward passes and golden forwards at
  /// the primary level, plus program preparation of both levels' flavors.
  void decision_net_costs(Report& rep) {
    const scenario::ScenarioConfig& cfg = cfgs_[0];
    const rrm::RrmNetwork& net = lanes(*engines_[0]).network(cfg.network);
    constexpr int kPasses = 500;
    Rng rng(derive_stream(seed_, 7));
    std::vector<std::vector<int16_t>> inputs;
    for (int i = 0; i < kPasses; ++i) inputs.push_back(random_input(rng, net.input_count()));
    iss::Memory mem(16u << 20);
    iss::Core core(&mem);
    const auto built = net.build(&mem, cfg.level, core.tanh_table(), core.sig_table());
    core.load_program(built.program);
    rrm::RrmNetwork::Golden golden(net, core.tanh_table(), core.sig_table());

    // The integrity layer: the instrumented flavor driven by CheckedRun with
    // ABFT detection (golden folds precomputed) against the plain flavor, on
    // the same inputs. The scenario engine cannot run with detection off, so
    // this is measured per execution.
    iss::Memory imem(16u << 20);
    iss::Core icore(&imem);
    exec::IssBackend ibe(&icore);
    const auto ibuilt = net.build(&imem, cfg.level, icore.tanh_table(), icore.sig_table(),
                                  8, 0, /*integrity=*/true);
    icore.load_program(ibuilt.program);
    std::vector<integrity::GoldenChecks> checks;
    for (const auto& in : inputs) {
      checks.push_back(integrity::golden_checks(net, icore.tanh_table(), icore.sig_table(), in));
    }
    integrity::CheckedRunConfig rc;
    rc.detect = true;

    // Alternated, so that all three see the same host conditions.
    double plain_s = 1e9, golden_s = 1e9, checked_s = 1e9;
    const uint64_t c0 = core.stats().total_cycles();
    for (int r = 0; r < 3; ++r) {
      plain_s = std::min(plain_s, timed([&] {
        for (const auto& in : inputs) {
          kernels::reset_state(mem, built);
          if (!kernels::try_run_forward(core, mem, built, in).ok()) std::abort();
        }
      }));
      golden_s = std::min(golden_s, timed([&] {
        for (const auto& in : inputs) {
          golden.reset();
          (void)golden.forward(in);
        }
      }));
      checked_s = std::min(checked_s, timed([&] {
        for (size_t i = 0; i < inputs.size(); ++i) {
          integrity::CheckedRun run(&ibe, &imem, &ibuilt, rc);
          run.set_golden(checks[i]);
          run.begin(inputs[i]);
          while (run.step() == integrity::CheckedRun::State::kBoundary) {
          }
          if (run.outputs() != checks[i].outputs.back()) std::abort();
        }
      }));
    }
    const double cycles_per_pass = static_cast<double>(core.stats().total_cycles() - c0) / 3;
    rep.set("iss.host_ns_per_sim_cycle", plain_s * 1e9 / cycles_per_pass);
    rep.set("rrm.golden_us_per_request", golden_s * 1e6 / kPasses);
    rep.set("integrity.host_overhead", checked_s / plain_s - 1.0);
    program_costs({{&net, cfg.level}, {&net, cfg.fallback_level}}, true, 3, rep);
  }

  uint64_t seed_;
  std::vector<scenario::ScenarioConfig> cfgs_;
  std::vector<std::unique_ptr<scenario::ScenarioEngine>> engines_;
  std::vector<iss::ExecStats> before_;
  std::vector<scenario::ScenarioResult> results_;
  std::vector<double> units_;
  Totals t_;
};

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;  ///< span file of a traced run; empty = not written
};

template <class W>
int run_workload(W& w, const Args& a) {
  SpanLog log;
  const Run run = measure(w, a.seconds, a.trace ? &log : nullptr);
  const bool correct = run.error.empty();
  Report rep = a.trace ? Report(kPerLayer) : Report(kEndToEnd);
  if (!correct) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", run.error.c_str());
  } else if (!a.trace) {
    end_to_end(run, rep);
  } else {
    w.per_layer(run.traced, log, rep);
    const double per_req = 1e6 / static_cast<double>(run.plain.first.offered);
    rep.set("trace.overhead_us_per_request",
            (run.traced.window_s() - run.plain.window_s()) * per_req);
    rep.set("host.probe_ms", run.probe_s * 1e3);
    if (!a.spans.empty() && !log.write(a.spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", a.spans.c_str());
    }
  }
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu untraced + %zu traced windows\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               run.plain.window_ids.size(), run.traced.window_ids.size());
  std::printf("%s\n", rep.json(correct, run.plain.attempted + run.traced.attempted,
                               correct ? 0 : 1).c_str());
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper_suite|serve_mix|serve_tiny_edf|city_storm>"
               " --seed <n> --seconds <s> --trace <0|1> [--spans <file>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--spans") a.spans = v;
    else return usage();
  }
  if (a.workload == "paper_suite") {
    PaperSuite w(a.seed);
    return run_workload(w, a);
  }
  if (a.workload == "serve_mix") {
    ServeWorkload w(serve_mix_spec(), a.seed);
    return run_workload(w, a);
  }
  if (a.workload == "serve_tiny_edf") {
    ServeWorkload w(serve_tiny_edf_spec(), a.seed);
    return run_workload(w, a);
  }
  if (a.workload == "city_storm") {
    CityStorm w(a.seed);
    return run_workload(w, a);
  }
  return usage();
}
