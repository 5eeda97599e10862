// perfbench — the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Runs one named workload in a closed loop (one caller, zero think
// time) for S seconds on parameters and inputs generated from the seed,
// checks every output, and prints one JSON result as its last stdout
// line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones (README.md); with --trace 1 they
// are the per-layer ones, measured in a separate traced run, and
// --trace-out writes a Perfetto trace of the traced window.
//
// Each run, in order:
//   1. host record + memory-copy probe (start);
//   2. live parameters and inputs from the seed (untimed);
//   3. set-up (the first of kSetupReps);
//   4. correctness gate: the first output against an independent path;
//   5. the timed window in kSetupReps segments with a fresh set-up between
//      each two, so the median set-up (setup_s) samples the whole run, not
//      one host phase at its start; every call's output digests are
//      checked against the gate's;
//   6. memory-copy probe (end), host record line, result line.
// The traced run also times the cycle tier on a second session where the
// workload has one (alexnet_func_b1), for sim.host_ns_per_sim_cycle.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cbrain/arch/config.hpp"
#include "cbrain/arch/energy_model.hpp"
#include "cbrain/common/check.hpp"
#include "cbrain/common/thread_pool.hpp"
#include "cbrain/engine/engine.hpp"
#include "cbrain/multichip/executor.hpp"
#include "cbrain/nn/workload.hpp"
#include "cbrain/nn/zoo.hpp"
#include "cbrain/obs/chrome_trace.hpp"
#include "cbrain/obs/metrics.hpp"
#include "cbrain/obs/tracer.hpp"
#include "cbrain/simd/simd.hpp"
#include "live_params.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace cbrain;
using Clock = std::chrono::steady_clock;

constexpr Policy kPolicy = Policy::kAdaptive2;
// Set-ups per run, and segments of the timed window.
constexpr int kSetupReps = 5;
constexpr i64 kMobileBatch = 8;
constexpr i64 kShardChips = 4;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// FNV-1a over dims and raw words: the per-output digest every timed call
// is checked against.
u64 digest(const Tensor3<Fixed16>& t) {
  u64 h = 0xcbf29ce484222325ull;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  };
  const MapDims d = t.dims();
  mix(&d, sizeof d);
  mix(t.raw_data(), static_cast<std::size_t>(t.size()) * sizeof(Fixed16));
  return h;
}

bool same_output(const Tensor3<Fixed16>& a, const Tensor3<Fixed16>& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.raw_data(), b.raw_data(),
                     static_cast<std::size_t>(a.size()) * sizeof(Fixed16)) ==
             0;
}

TrafficCounters total_counters(const SimResult& r) {
  TrafficCounters t;
  for (const TrafficCounters& c : r.per_layer) t += c;
  return t;
}

// ---- host record ---------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

// Program-independent memory bandwidth: median of 7 copies of a 64 MiB
// buffer, bytes copied per second. The roofline func.fc.weight_gb_per_s
// is read against, and a marker of slow host phases.
double copy_probe_gb_per_s() {
  constexpr std::size_t kBytes = std::size_t{64} << 20;
  std::vector<char> src(kBytes, 1), dst(kBytes, 0);
  std::vector<double> rates;
  for (int rep = 0; rep < 7; ++rep) {
    src[static_cast<std::size_t>(rep)] = static_cast<char>(rep);
    const auto t0 = Clock::now();
    std::memcpy(dst.data(), src.data(), kBytes);
    const auto t1 = Clock::now();
    rates.push_back(static_cast<double>(kBytes) / 1e6 / ms_between(t0, t1));
  }
  if (dst[3] != 3) std::abort();  // keeps the copies observable
  return median(rates);
}

// Peak resident set since the last reset_peak_rss() (VmHWM), falling
// back to the process-lifetime ru_maxrss where VmHWM cannot be reset.
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- result --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string module;  // per-layer only: where the work happens
  std::string moves;   // per-layer only: the end-to-end metric it moves
};

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// ---- workloads -------------------------------------------------------------

// Names and units of the multichip.* per-layer metrics.
const std::vector<std::pair<std::string, std::string>>& multichip_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"multichip.single_session_ms_per_image", "ms"},
      {"multichip.host_overhead_ratio", "ratio"},
      {"multichip.xfer_words_per_image", "words"},
      {"multichip.xfer_cycles_per_image", "cycles"},
      {"multichip.chip_imbalance", "ratio"}};
  return m;
}

struct SetupTimes {
  double compile_ms = 0.0;
  double load_ms = 0.0;   // session open + Session::load_params
  double first_ms = 0.0;  // first inference
  double plan_ms = 0.0;   // plan_multichip (shard only)
  double open_ms = 0.0;   // MultiChipExecutor construction (shard only)
  double total_ms = 0.0;  // what setup_s reports
  i64 cache_hits = 0;
  i64 cache_misses = 0;
};

// One workload: a serving state that can be rebuilt from scratch
// (setup), checked against an independent path (gate), and called in a
// closed loop (call). Outputs of one call are one SimResult per image.
class Workload {
 public:
  Workload(std::string name, Network net, u64 seed, i64 images)
      : name_(std::move(name)), net_(std::move(net)),
        params_(perfbench::live_params(net_, seed)) {
    for (i64 i = 0; i < images; ++i)
      inputs_.push_back(perfbench::live_input(net_, seed, static_cast<u64>(i)));
  }
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const std::string& name() const { return name_; }
  const Network& net() const { return net_; }
  i64 images_per_call() const { return static_cast<i64>(inputs_.size()); }
  // Images one weight pass serves (the batch size of a layer call).
  virtual i64 images_per_pass() const { return 1; }
  const std::vector<SimResult>& first() const { return first_; }

  virtual SetupTimes setup() = 0;
  // "" when first() matches the independent path bit for bit.
  virtual std::string gate() = 0;
  virtual std::vector<SimResult> call(std::vector<Status>* statuses) = 0;
  // Simulated cycles and energy of one image (exact, estimated or
  // package makespan by tier).
  virtual i64 sim_cycles_per_image() const {
    return total_counters(first_.front()).total_cycles;
  }
  virtual double sim_energy_uj_per_image() const {
    return compute_energy(total_counters(first_.front())).total_uj();
  }
  // Median host ms per image of a cycle-tier session on the same net,
  // weights and input, timed for at least `seconds`; 0 where the workload
  // has no cycle-tier path to time.
  virtual double cycle_host_ms_per_image(double /*seconds*/) { return 0.0; }
  // The multichip.* per-layer metrics; host_ms_per_image is the traced
  // run's untraced host time per image. Zero where multichip/ is idle.
  virtual void multichip_layer_metrics(std::vector<Metric>& out,
                                       double /*host_ms_per_image*/) {
    for (const auto& [name, unit] : multichip_metrics())
      out.push_back({name, 0.0, unit, "multichip", "not exercised"});
  }

 protected:
  std::string name_;
  Network net_;
  NetParamsData<Fixed16> params_;
  std::vector<Tensor3<Fixed16>> inputs_;
  std::vector<SimResult> first_;
};

const AcceleratorConfig& config() {
  static const AcceleratorConfig c = AcceleratorConfig::paper_16_16();
  return c;
}

// The engine's compile-cache counters, for deltas across a region.
struct CacheCounts {
  i64 hits = 0;
  i64 misses = 0;
  static CacheCounts now() {
    auto& reg = obs::Registry::global();
    return {reg.counter("engine.compile_cache_hits").value(),
            reg.counter("engine.compile_cache_misses").value()};
  }
  void record_since(const CacheCounts& before, SetupTimes& t) const {
    t.cache_hits = hits - before.hits;
    t.cache_misses = misses - before.misses;
  }
};

// Opens a fresh weight-resident session; fills compile/load times.
std::unique_ptr<engine::Session> open_timed(engine::Engine& eng,
                                            const Network& net,
                                            const NetParamsData<Fixed16>& p,
                                            Fidelity fid, SetupTimes& t) {
  const CacheCounts c0 = CacheCounts::now();
  const auto t0 = Clock::now();
  auto compiled = eng.compile(net, kPolicy, fid);
  const auto t1 = Clock::now();
  CacheCounts::now().record_since(c0, t);
  auto session =
      std::make_unique<engine::Session>(net, compiled, eng.config(), fid);
  session->load_params(p);
  const auto t2 = Clock::now();
  t.compile_ms = ms_between(t0, t1);
  t.load_ms = ms_between(t1, t2);
  return session;
}

// AlexNet at B=1 on one functional Session; the gate runs the same image
// on the cycle tier.
class SessionWorkload : public Workload {
 public:
  SessionWorkload(std::string name, Network net, u64 seed)
      : Workload(std::move(name), std::move(net), seed, 1) {}

  SetupTimes setup() override {
    session_.reset();
    engine_ = std::make_unique<engine::Engine>(config());
    SetupTimes t;
    session_ = open_timed(*engine_, net_, params_, Fidelity::kFunctional, t);
    const auto t0 = Clock::now();
    first_ = {session_->infer(inputs_[0])};
    t.first_ms = ms_between(t0, Clock::now());
    t.total_ms = t.compile_ms + t.load_ms + t.first_ms;
    return t;
  }

  std::string gate() override {
    engine::Engine eng(config());
    auto s = eng.open_session(net_, kPolicy, params_, Fidelity::kCycle);
    if (!same_output(s->infer(inputs_[0]).final_output,
                     first_[0].final_output))
      return "functional output differs from the cycle tier";
    return "";
  }

  std::vector<SimResult> call(std::vector<Status>*) override {
    return {session_->infer(inputs_[0])};
  }

  double cycle_host_ms_per_image(double seconds) override {
    engine::Engine eng(config());
    auto s = eng.open_session(net_, kPolicy, params_, Fidelity::kCycle);
    s->infer(inputs_[0]);
    std::vector<double> ms;
    const auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(seconds));
    while (ms.size() < 5 || Clock::now() < until) {
      const auto t0 = Clock::now();
      s->infer(inputs_[0]);
      ms.push_back(ms_between(t0, Clock::now()));
    }
    return median(ms);
  }

 private:
  std::unique_ptr<engine::Engine> engine_;
  std::unique_ptr<engine::Session> session_;
};

// MobileNetV1, functional, batches of kMobileBatch images through
// Engine::run_batches on one session. The gate runs slot 0 on the cycle
// tier and every slot through a functional B=1 session.
class BatchWorkload : public Workload {
 public:
  BatchWorkload(std::string name, Network net, u64 seed)
      : Workload(std::move(name), std::move(net), seed, kMobileBatch) {
    std::vector<i64> all;
    for (i64 i = 0; i < kMobileBatch; ++i) all.push_back(i);
    batches_ = {all};
  }

  i64 images_per_pass() const override { return kMobileBatch; }

  SetupTimes setup() override {
    engine_ = std::make_unique<engine::Engine>(config());
    SetupTimes t;
    // compile + weight packing as a standalone session would pay them;
    // run_batches then opens its own pooled session per call.
    open_timed(*engine_, net_, params_, Fidelity::kFunctional, t);
    const auto t0 = Clock::now();
    std::vector<Status> st;
    first_ = call(&st);
    t.first_ms = ms_between(t0, Clock::now());
    for (const Status& s : st)
      CBRAIN_CHECK(s.is_ok(), "first batch failed: " << s.to_string());
    t.total_ms = t.compile_ms + t.load_ms + t.first_ms;
    return t;
  }

  std::string gate() override {
    engine::Engine eng(config());
    {
      auto cyc = eng.open_session(net_, kPolicy, params_, Fidelity::kCycle);
      if (!same_output(cyc->infer(inputs_[0]).final_output,
                       first_[0].final_output))
        return "batched slot 0 differs from the cycle tier";
    }
    auto fun = eng.open_session(net_, kPolicy, params_, Fidelity::kFunctional);
    for (std::size_t i = 0; i < inputs_.size(); ++i)
      if (!same_output(fun->infer(inputs_[i]).final_output,
                       first_[i].final_output))
        return "batched slot " + std::to_string(i) +
               " differs from a functional B=1 session";
    return "";
  }

  std::vector<SimResult> call(std::vector<Status>* statuses) override {
    return engine_->run_batches(net_, kPolicy, params_, inputs_, batches_,
                                /*jobs=*/1, nullptr, Fidelity::kFunctional,
                                statuses, /*intra_jobs=*/1);
  }

 private:
  std::unique_ptr<engine::Engine> engine_;
  std::vector<std::vector<i64>> batches_;
};

// ResNet-18 sharded over kShardChips chips (functional). The gate runs
// the same image through one single-chip functional session.
class ShardWorkload : public Workload {
 public:
  ShardWorkload(std::string name, Network net, u64 seed)
      : Workload(std::move(name), std::move(net), seed, 1) {
    opts_.chips = kShardChips;
    opts_.strategy = multichip::PartitionStrategy::kShard;
    opts_.policy = kPolicy;
    opts_.fidelity = Fidelity::kFunctional;
  }

  SetupTimes setup() override {
    exec_.reset();
    engine_ = std::make_unique<engine::Engine>(config());
    SetupTimes t;
    multichip::PlanOptions po;
    po.chips = opts_.chips;
    po.strategy = opts_.strategy;
    po.policy = opts_.policy;
    const auto t0 = Clock::now();
    auto plan = multichip::plan_multichip(net_, config(), po);
    const auto t1 = Clock::now();
    CBRAIN_CHECK(plan.is_ok(), "plan_multichip failed");
    t.plan_ms = ms_between(t0, t1);

    // The compile work inside the executor's open: every piece subnet
    // through a fresh cache (identical geometries hit it).
    {
      engine::Engine probe(config());
      const auto c0 = Clock::now();
      for (const auto& lp : plan.value().layers)
        for (const auto& piece : lp.pieces)
          if (piece.subnet) probe.compile(*piece.subnet, kPolicy, opts_.fidelity);
      t.compile_ms = ms_between(c0, Clock::now());
    }

    const CacheCounts c0 = CacheCounts::now();
    const auto t2 = Clock::now();
    exec_ = std::make_unique<multichip::MultiChipExecutor>(*engine_, net_,
                                                            opts_);
    const auto t3 = Clock::now();
    CacheCounts::now().record_since(c0, t);
    exec_->load_params(params_);
    const auto t4 = Clock::now();
    first_ = {exec_->infer(inputs_[0])};
    const auto t5 = Clock::now();
    first_stats_ = exec_->stats();
    t.open_ms = ms_between(t2, t3);
    t.load_ms = ms_between(t3, t4);
    t.first_ms = ms_between(t4, t5);
    t.total_ms = t.plan_ms + t.open_ms + t.load_ms + t.first_ms;
    return t;
  }

  std::string gate() override {
    engine::Engine eng(config());
    auto s = eng.open_session(net_, kPolicy, params_, Fidelity::kFunctional);
    if (!same_output(s->infer(inputs_[0]).final_output,
                     first_[0].final_output))
      return "4-chip output differs from a single functional session";
    return "";
  }

  std::vector<SimResult> call(std::vector<Status>*) override {
    return {exec_->infer(inputs_[0])};
  }

  i64 sim_cycles_per_image() const override {
    return first_stats_.makespan_cycles / std::max<i64>(1, first_stats_.images);
  }
  double sim_energy_uj_per_image() const override {
    return Workload::sim_energy_uj_per_image() +
           first_stats_.xfer_energy_pj * 1e-6 /
               static_cast<double>(std::max<i64>(1, first_stats_.images));
  }

  void multichip_layer_metrics(std::vector<Metric>& out,
                               double host_ms_per_image) override {
    // Single-session functional host time on the same net, weights and
    // input: the base of host_overhead_ratio.
    engine::Engine eng(config());
    auto s = eng.open_session(net_, kPolicy, params_, Fidelity::kFunctional);
    s->infer(inputs_[0]);
    std::vector<double> ms;
    const auto until = Clock::now() + std::chrono::seconds(2);
    while (ms.size() < 5 || Clock::now() < until) {
      const auto t0 = Clock::now();
      s->infer(inputs_[0]);
      ms.push_back(ms_between(t0, Clock::now()));
    }
    const double single = median(ms);
    const multichip::MultiChipStats& st = first_stats_;
    const double imgs = static_cast<double>(std::max<i64>(1, st.images));
    i64 max_xfer = 0, max_comp = 0;
    double sum_comp = 0.0;
    for (const auto& c : st.chips) {
      max_xfer = std::max(max_xfer, c.xfer_cycles);
      max_comp = std::max(max_comp, c.compute_cycles);
      sum_comp += static_cast<double>(c.compute_cycles);
    }
    const double mean_comp =
        sum_comp / static_cast<double>(std::max<std::size_t>(1, st.chips.size()));
    out.push_back({"multichip.single_session_ms_per_image", single, "ms",
                   "multichip", "base of host_overhead_ratio"});
    out.push_back({"multichip.host_overhead_ratio",
                   single > 0.0 ? host_ms_per_image / single : 0.0, "ratio",
                   "multichip", "peak_images_per_s"});
    out.push_back({"multichip.xfer_words_per_image",
                   static_cast<double>(st.xfer_words) / imgs, "words",
                   "multichip", "sim_cycles_per_image"});
    out.push_back({"multichip.xfer_cycles_per_image",
                   static_cast<double>(max_xfer) / imgs, "cycles",
                   "multichip", "sim_cycles_per_image"});
    out.push_back({"multichip.chip_imbalance",
                   mean_comp > 0.0 ? static_cast<double>(max_comp) / mean_comp
                                   : 0.0,
                   "ratio", "multichip", "sim_cycles_per_image"});
  }

 private:
  multichip::MultiChipOptions opts_;
  std::unique_ptr<engine::Engine> engine_;
  std::unique_ptr<multichip::MultiChipExecutor> exec_;
  multichip::MultiChipStats first_stats_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, u64 seed) {
  if (name == "alexnet_func_b1")
    return std::make_unique<SessionWorkload>(name, zoo::alexnet(), seed);
  if (name == "mobilenet_func_batch")
    return std::make_unique<BatchWorkload>(name, zoo::mobilenetv1(), seed);
  if (name == "resnet18_shard4")
    return std::make_unique<ShardWorkload>(name, zoo::resnet18(), seed);
  return nullptr;
}

// ---- the timed window ------------------------------------------------------

struct Window {
  i64 images = 0;  // attempted
  i64 failed = 0;
  double wall_ms = 0.0;
  std::vector<double> call_ms;
};

// Closed loop for `seconds`, added to `w`: each call starts when the
// previous one returns. Every output is checked against the gate's digest
// of the same slot; a throw, a non-OK status or a mismatch fails the
// call's images.
void run_window(Workload& wl, const std::vector<u64>& want, double seconds,
                Window& w,
                const std::function<void(const std::function<void()>&)>&
                    wrap = nullptr) {
  const i64 per_call = wl.images_per_call();
  const auto start = Clock::now();
  const auto until =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  do {
    std::vector<Status> st;
    std::vector<SimResult> out;
    bool threw = false;
    const auto t0 = Clock::now();
    auto body = [&] {
      try {
        out = wl.call(&st);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: call failed: %s\n", e.what());
        threw = true;
      }
    };
    if (wrap) wrap(body); else body();
    w.call_ms.push_back(ms_between(t0, Clock::now()));
    w.images += per_call;
    for (i64 i = 0; i < per_call; ++i) {
      const auto k = static_cast<std::size_t>(i);
      const bool ok = !threw && k < out.size() &&
                      (st.empty() || st[k].is_ok()) &&
                      digest(out[k].final_output) == want[k];
      if (!ok) ++w.failed;
    }
  } while (Clock::now() < until);
  w.wall_ms += ms_between(start, Clock::now());
}

double images_per_s(const Window& w) {
  return static_cast<double>(w.images) / (w.wall_ms / 1e3);
}

// Images per second of the fastest call. The host's neighbours slow
// calls by up to half in phases lasting seconds to minutes, so
// whole-window throughput moves with the share of the window spent in
// slow phases; the fastest call moves about half as much (README.md,
// "Noise").
double peak_images_per_s(const Window& w, i64 images_per_call) {
  return static_cast<double>(images_per_call) /
         (*std::min_element(w.call_ms.begin(), w.call_ms.end()) / 1e3);
}

// ---- per-layer (traced run) ------------------------------------------------

const std::vector<std::string>& alexnet_layers() {
  static const std::vector<std::string> names = {
      "conv1", "conv2", "conv3", "conv4", "conv5", "fc6", "fc7", "fc8"};
  return names;
}

// The per-kind host-time counters the functional tier keeps; the
// residual join's counter is named after its layer kind, "add".
const std::vector<std::pair<std::string, std::string>>& func_kinds() {
  static const std::vector<std::pair<std::string, std::string>> k = {
      {"conv", "conv"}, {"fc", "fc"},           {"pool", "pool"},
      {"lrn", "lrn"},   {"eltwise", "add"},     {"softmax", "softmax"}};
  return k;
}

std::map<std::string, i64> func_wall_snapshot() {
  std::map<std::string, i64> s;
  auto& reg = obs::Registry::global();
  for (const auto& [metric, counter] : func_kinds())
    s[metric] = reg.counter("func.wall_us." + counter).value();
  return s;
}

std::vector<Metric> layer_metrics(Workload& wl,
                                  const std::vector<SetupTimes>& setups,
                                  const Window& plain,
                                  const std::map<std::string, i64>& f0,
                                  const std::map<std::string, i64>& f1,
                                  const Window& traced,
                                  double cycle_ms_per_image) {
  std::vector<Metric> m;
  auto med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return median(v);
  };
  m.push_back({"compiler.compile_ms", med(&SetupTimes::compile_ms), "ms",
               "compiler", "setup_s"});
  m.push_back({"engine.load_params_ms", med(&SetupTimes::load_ms), "ms",
               "engine", "setup_s"});
  m.push_back({"engine.first_infer_ms", med(&SetupTimes::first_ms), "ms",
               "engine", "setup_s"});
  m.push_back({"multichip.plan_ms", med(&SetupTimes::plan_ms), "ms",
               "multichip", "setup_s"});
  m.push_back({"multichip.open_ms", med(&SetupTimes::open_ms), "ms",
               "multichip", "setup_s"});
  m.push_back({"engine.compile_cache_hits",
               static_cast<double>(setups.back().cache_hits), "count",
               "engine", "setup_s"});
  m.push_back({"engine.compile_cache_misses",
               static_cast<double>(setups.back().cache_misses), "count",
               "engine", "setup_s"});

  const double imgs = static_cast<double>(plain.images);
  const double host_ms_per_image = plain.wall_ms / imgs;
  const double cycles = static_cast<double>(wl.sim_cycles_per_image());
  // The cycle tier is timed only here: its throughput flips between host
  // phases too far for any end-to-end bound (README.md, "Noise").
  m.push_back({"sim.host_ns_per_sim_cycle", cycle_ms_per_image * 1e6 / cycles,
               "ns", "sim",
               cycle_ms_per_image > 0.0 ? "none (cycle tier not timed end to end)"
                                        : "not exercised"});
  const SimResult& first = wl.first().front();
  for (const std::string& lname : alexnet_layers()) {
    TrafficCounters c;
    for (const Layer& l : wl.net().layers())
      if (l.name == lname) c = first.per_layer[static_cast<std::size_t>(l.id)];
    const double busy = static_cast<double>(c.mul_ops + c.idle_mul_slots);
    const std::string p = "sim." + lname + ".";
    m.push_back({p + "cycles", static_cast<double>(c.total_cycles), "cycles",
                 "sim", "sim_cycles_per_image"});
    m.push_back({p + "pe_util",
                 busy > 0.0 ? static_cast<double>(c.mul_ops) / busy : 0.0,
                 "ratio", "sim", "sim_cycles_per_image"});
    m.push_back({p + "buffer_words", static_cast<double>(c.buffer_accesses()),
                 "words", "sim", "sim_energy_uj_per_image"});
    m.push_back({p + "dram_words", static_cast<double>(c.dram_words()),
                 "words", "sim", "sim_energy_uj_per_image"});
  }

  auto kind_ms = [&](const std::string& k) {
    return static_cast<double>(f1.at(k) - f0.at(k)) / 1e3;
  };
  for (const auto& [k, counter] : func_kinds())
    m.push_back({"func." + k + ".ms_per_image", kind_ms(k) / imgs, "ms",
                 "func", "peak_images_per_s"});
  const NetworkWorkload nw = analyze_workload(wl.net());
  i64 fc_weight_words = 0;
  for (const LayerWorkload& lw : nw.layers)
    if (lw.kind == LayerKind::kFC) fc_weight_words += lw.weight_words;
  const double passes = imgs / static_cast<double>(wl.images_per_pass());
  const double fc_s = kind_ms("fc") / 1e3, conv_s = kind_ms("conv") / 1e3;
  m.push_back({"func.fc.weight_gb_per_s",
               fc_s > 0.0 ? static_cast<double>(fc_weight_words) * 2.0 *
                                passes / fc_s / 1e9
                          : 0.0,
               "GB/s", "func", "peak_images_per_s"});
  m.push_back({"func.conv.gmac_per_s",
               conv_s > 0.0
                   ? static_cast<double>(nw.conv_macs) * imgs / conv_s / 1e9
                   : 0.0,
               "GMAC/s", "func", "peak_images_per_s"});
  // The per-call median and p90. They are no end-to-end metrics: on a
  // host with long slow phases they move with the host, not the code.
  m.push_back({"engine.batch_call_ms", median(plain.call_ms), "ms", "engine",
               "peak_images_per_s"});
  m.push_back({"engine.call_p90_ms", percentile(plain.call_ms, 0.90), "ms",
               "engine", "peak_images_per_s"});
  // Whole-window throughput: what one caller got, host phases included.
  m.push_back({"engine.window_images_per_s", images_per_s(plain), "1/s",
               "engine", "diagnostic"});

  wl.multichip_layer_metrics(m, host_ms_per_image);

  m.push_back({"trace.overhead_frac",
               1.0 - images_per_s(traced) / images_per_s(plain), "ratio",
               "obs", "peak_images_per_s"});
  return m;
}

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-out") a.trace_out = v;
    else return usage(("unknown flag " + k).c_str());
  }
  if (!(a.seconds > 0.0)) return usage("--seconds must be positive");

  // One host thread for every workload, the 4-chip package included: its
  // chips' pieces run one after another. On a host whose vCPUs are
  // descheduled in bursts, per-layer barriers across 4 threads moved
  // resnet18_shard4's throughput by a third between runs (README.md).
  parallel::set_default_jobs(1);
  const double copy_start = copy_probe_gb_per_s();
  std::unique_ptr<Workload> wl = make_workload(a.workload, a.seed);
  if (!wl) return usage(("unknown workload " + a.workload).c_str());

  std::vector<SetupTimes> setups = {wl->setup()};

  i64 attempted = 1, failed = 0;  // the gate is the first operation
  const std::string gate_err = wl->gate();
  if (!gate_err.empty()) {
    std::fprintf(stderr, "perfbench: correctness gate: %s\n", gate_err.c_str());
    ++failed;
  }
  std::vector<u64> want;
  for (const SimResult& r : wl->first()) want.push_back(digest(r.final_output));

  std::vector<Metric> metrics;
  Window plain;
  if (!a.trace) {
    // Peak RSS is the largest of the segments', so set-up's transients
    // stay out of it.
    double rss = 0.0;
    for (int seg = 0; seg < kSetupReps; ++seg) {
      if (seg > 0) {
        // A fresh set-up's first output is one more checked operation.
        setups.push_back(wl->setup());
        for (std::size_t k = 0; k < want.size(); ++k) {
          ++attempted;
          if (digest(wl->first()[k].final_output) != want[k]) ++failed;
        }
      }
      reset_peak_rss();
      run_window(*wl, want, a.seconds / kSetupReps, plain);
      rss = std::max(rss, peak_rss_mb());
    }
    std::vector<double> setup_ms;
    for (const SetupTimes& s : setups) setup_ms.push_back(s.total_ms);
    metrics = {
        {"setup_s", median(setup_ms) / 1e3, "s", "", ""},
        {"peak_images_per_s", peak_images_per_s(plain, wl->images_per_call()),
         "1/s", "", ""},
        {"sim_cycles_per_image",
         static_cast<double>(wl->sim_cycles_per_image()), "cycles", "", ""},
        {"sim_energy_uj_per_image", wl->sim_energy_uj_per_image(), "uJ", "", ""},
        {"peak_rss_mb", rss, "MB", "", ""},
    };
  } else {
    // Set-ups back to back: a set-up's first inference would count in
    // the func.wall_us deltas. Untraced half: the per-layer figures.
    // Traced half: the same loop with the span tracer on and a span per
    // call, for the overhead and the Perfetto trace.
    while (static_cast<int>(setups.size()) < kSetupReps)
      setups.push_back(wl->setup());
    const auto f0 = func_wall_snapshot();
    run_window(*wl, want, a.seconds / 2, plain);
    const auto f1 = func_wall_snapshot();
    obs::Tracer& tracer = obs::Tracer::global();
    obs::TraceData kept;
    tracer.enable();
    Window traced;
    run_window(
        *wl, want, a.seconds / 2, traced,
        [&](const std::function<void()>& body) {
          const int track = tracer.add_track(obs::Domain::kWall,
                                             "perfbench:" + wl->name());
          {
            obs::WallSpan span(track, 0, "call:" + wl->name(), "perfbench");
            body();
          }
          obs::TraceData d = tracer.drain();  // bounded memory per call
          if (kept.empty()) kept = std::move(d);
        });
    tracer.disable();
    attempted += traced.images;
    failed += traced.failed;
    if (!a.trace_out.empty()) {
      std::ofstream(a.trace_out) << obs::to_chrome_trace_json(kept);
    }
    const double cycle_ms = wl->cycle_host_ms_per_image(a.seconds / 4);
    metrics = layer_metrics(*wl, setups, plain, f0, f1, traced, cycle_ms);
  }
  attempted += plain.images;
  failed += plain.failed;
  const double copy_end = copy_probe_gb_per_s();
  if (a.trace) {
    metrics.push_back({"host.copy_gb_per_s_start", copy_start, "GB/s", "host",
                       "diagnostic"});
    metrics.push_back({"host.copy_gb_per_s_end", copy_end, "GB/s", "host",
                       "diagnostic"});
  }

  std::printf(
      "perfbench host: {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
      "\"cpu\": \"%s\", \"simd\": \"%s\", \"build\": \"%s\", "
      "\"copy_gb_per_s_start\": %s, \"copy_gb_per_s_end\": %s, "
      "\"latency_samples\": %lld}\n",
      wl->name().c_str(), static_cast<unsigned long long>(a.seed),
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      simd::backend_name(simd::active_backend()), PERFBENCH_BUILD_TYPE,
      num(copy_start).c_str(), num(copy_end).c_str(),
      static_cast<long long>(plain.call_ms.size()));
  if (a.trace) {
    for (const Metric& m : metrics)
      std::printf("perfbench layer: %-40s %14.6g %-7s module=%s moves=%s "
                  "workload=%s\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.module.c_str(),
                  m.moves.c_str(), wl->name().c_str());
  }
  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
