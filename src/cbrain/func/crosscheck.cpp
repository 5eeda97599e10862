#include "cbrain/func/crosscheck.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "cbrain/arch/energy_model.hpp"
#include "cbrain/common/check.hpp"
#include "cbrain/func/executor.hpp"
#include "cbrain/obs/metrics.hpp"
#include "cbrain/ref/params.hpp"
#include "cbrain/sim/executor.hpp"

namespace cbrain::func {
namespace {

double rel_err(double model, double sim) {
  if (sim == 0.0 && model == 0.0) return 0.0;
  return std::abs(model - sim) / std::max(std::abs(sim), 1.0);
}

}  // namespace

double LayerFidelity::cycle_rel_err() const {
  return rel_err(static_cast<double>(model_cycles),
                 static_cast<double>(sim_cycles));
}

double LayerFidelity::energy_rel_err() const {
  return rel_err(model_energy_uj, sim_energy_uj);
}

double FidelityReport::max_cycle_rel_err() const {
  double m = 0.0;
  for (const auto& l : layers) m = std::max(m, l.cycle_rel_err());
  return m;
}

double FidelityReport::max_energy_rel_err() const {
  double m = 0.0;
  for (const auto& l : layers) m = std::max(m, l.energy_rel_err());
  return m;
}

namespace {

double nearest_rank(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace

ErrorAggregate FidelityReport::cycle_errors() const {
  ErrorAggregate a;
  double sim_total = 0.0, model_total = 0.0;
  std::vector<double> errs;
  for (const auto& l : layers) {
    sim_total += static_cast<double>(l.sim_cycles);
    model_total += static_cast<double>(l.model_cycles);
    errs.push_back(l.cycle_rel_err());
  }
  a.whole_net = rel_err(model_total, sim_total);
  a.p50 = nearest_rank(errs, 0.50);
  a.p90 = nearest_rank(errs, 0.90);
  a.max = max_cycle_rel_err();
  return a;
}

ErrorAggregate FidelityReport::energy_errors() const {
  ErrorAggregate a;
  double sim_total = 0.0, model_total = 0.0;
  std::vector<double> errs;
  for (const auto& l : layers) {
    sim_total += l.sim_energy_uj;
    model_total += l.model_energy_uj;
    errs.push_back(l.energy_rel_err());
  }
  a.whole_net = rel_err(model_total, sim_total);
  a.p50 = nearest_rank(errs, 0.50);
  a.p90 = nearest_rank(errs, 0.90);
  a.max = max_energy_rel_err();
  return a;
}

std::string FidelityReport::table() const {
  std::ostringstream os;
  os << "fidelity: " << network << " (" << policy_name(policy) << ")\n";
  os << "  outputs: "
     << (outputs_identical ? "bit-identical" : "DIVERGED") << " ("
     << mismatched_words << "/" << total_words << " words differ)\n";
  os << "  " << std::left << std::setw(14) << "layer" << std::setw(9)
     << "kind" << std::setw(18) << "kernel" << std::right << std::setw(13)
     << "sim cycles"
     << std::setw(13) << "model" << std::setw(8) << "err%" << std::setw(12)
     << "sim uJ" << std::setw(12) << "model uJ" << std::setw(8) << "err%"
     << "\n";
  for (const auto& l : layers) {
    os << "  " << std::left << std::setw(14) << l.name << std::setw(9)
       << layer_kind_name(l.kind) << std::setw(18) << l.kernel << std::right
       << std::setw(13) << l.sim_cycles << std::setw(13) << l.model_cycles
       << std::setw(7) << std::fixed << std::setprecision(2) << 100.0 * l.cycle_rel_err()
       << "%" << std::setw(12) << std::setprecision(3) << l.sim_energy_uj
       << std::setw(12) << l.model_energy_uj << std::setw(7)
       << std::setprecision(2) << 100.0 * l.energy_rel_err() << "%\n";
  }
  os << "  max error: cycles " << std::fixed << std::setprecision(2)
     << 100.0 * max_cycle_rel_err() << "%, energy "
     << 100.0 * max_energy_rel_err() << "%\n";
  const ErrorAggregate c = cycle_errors();
  const ErrorAggregate e = energy_errors();
  os << "  aggregate: cycles whole-net " << 100.0 * c.whole_net
     << "% p50 " << 100.0 * c.p50 << "% p90 " << 100.0 * c.p90 << "% max "
     << 100.0 * c.max << "% | energy whole-net " << 100.0 * e.whole_net
     << "% p50 " << 100.0 * e.p50 << "% p90 " << 100.0 * e.p90 << "% max "
     << 100.0 * e.max << "%\n";
  return os.str();
}

FidelityReport cross_validate(const Network& net, Policy policy,
                              const AcceleratorConfig& config,
                              std::uint64_t seed) {
  auto compiled = compile_network(net, policy, config);
  CBRAIN_CHECK(compiled.is_ok(), "cross_validate compile(" << net.name()
                                     << "): "
                                     << compiled.status().to_string());
  const CompiledNetwork& prog = compiled.value();

  const auto params = init_net_params<Fixed16>(net, seed);
  const auto input = random_input<Fixed16>(net.layer(0).out_dims, seed + 1);

  SimExecutor sim(net, prog, config);
  const SimResult sim_r = sim.run(input, params);

  FuncExecutor func(net, prog, config);
  func.load_params(params);
  const SimResult func_r = func.infer(input);

  FidelityReport report;
  report.network = net.name();
  report.policy = policy;
  report.total_words = sim_r.final_output.size();
  CBRAIN_CHECK(func_r.final_output.dims() == sim_r.final_output.dims(),
               "fidelity tiers disagree on output dims");
  for (i64 i = 0; i < report.total_words; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (sim_r.final_output.storage()[idx] != func_r.final_output.storage()[idx])
      ++report.mismatched_words;
  }
  report.outputs_identical = report.mismatched_words == 0;

  for (const Layer& l : net.layers()) {
    const auto idx = static_cast<std::size_t>(l.id);
    const TrafficCounters& sc = sim_r.per_layer[idx];
    const TrafficCounters& mc = func_r.per_layer[idx];
    if (sc.total_cycles == 0 && mc.total_cycles == 0) continue;
    LayerFidelity lf;
    lf.id = l.id;
    lf.name = l.name;
    lf.kind = l.kind;
    if (const auto k = func.kernel(l.id)) lf.kernel = conv_kernel_name(*k);
    lf.sim_cycles = sc.total_cycles;
    lf.model_cycles = mc.total_cycles;
    lf.sim_energy_uj = compute_energy(sc).total_uj();
    lf.model_energy_uj = compute_energy(mc).total_uj();
    report.layers.push_back(std::move(lf));
  }

  auto& reg = obs::Registry::global();
  reg.counter("func.crosschecks_total").inc();
  if (report.mismatched_words > 0)
    reg.counter("func.divergence_total").inc(report.mismatched_words);
  return report;
}

}  // namespace cbrain::func
