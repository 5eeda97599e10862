// Cross-validation between the two execution fidelities (DESIGN.md §12):
// runs the same (network, policy, params, input) through the cycle-exact
// simulator and the functional executor, then reports
//
//   * output fidelity  — whole-net bit-equality, with a mismatched-word
//                        count that also feeds the func.divergence_total
//                        counter (any nonzero value is a released-tier
//                        correctness bug), and
//   * counter fidelity — per-layer cycle and energy estimates from the
//                        analytical model (what the functional tier
//                        reports) against the simulator's exact
//                        accounting, as a Fig.-style error table.
//
// The CLI `fidelity-check` command and the CI fidelity leg are thin
// wrappers over cross_validate(); tests/test_fidelity.cpp asserts the
// report's invariants across the whole model zoo.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cbrain/arch/config.hpp"
#include "cbrain/compiler/compiler.hpp"
#include "cbrain/nn/network.hpp"

namespace cbrain::func {

struct LayerFidelity {
  LayerId id = -1;
  std::string name;
  LayerKind kind = LayerKind::kInput;
  // Functional-tier kernel chosen at pack time (conv_kernel_name), "-"
  // for layers without weights.
  std::string kernel = "-";
  i64 sim_cycles = 0;    // simulator's exact accounting
  i64 model_cycles = 0;  // analytical estimate (what func reports)
  double sim_energy_uj = 0.0;
  double model_energy_uj = 0.0;

  double cycle_rel_err() const;
  double energy_rel_err() const;
};

// Distribution of model-vs-sim error across a whole report: the
// whole-net aggregate (errors of opposite sign cancel, as they do in
// any end-to-end estimate) next to nearest-rank percentiles of the
// per-layer distribution (where they don't).
struct ErrorAggregate {
  double whole_net = 0.0;  // |Σ model − Σ sim| / Σ sim
  double p50 = 0.0;        // per-layer nearest-rank percentiles
  double p90 = 0.0;
  double max = 0.0;
};

struct FidelityReport {
  std::string network;
  Policy policy = Policy::kAdaptive2;
  bool outputs_identical = false;
  i64 mismatched_words = 0;  // raw int16 words differing in final output
  i64 total_words = 0;
  std::vector<LayerFidelity> layers;  // layers with nonzero sim activity

  double max_cycle_rel_err() const;
  double max_energy_rel_err() const;
  ErrorAggregate cycle_errors() const;
  ErrorAggregate energy_errors() const;

  // Fig.-style per-layer model-vs-sim error table (with each layer's
  // functional kernel) plus the output verdict, ready for the CLI.
  std::string table() const;
};

// Seeded parameters/input (ref/params.hpp conventions), both executors,
// one report. Increments func.crosschecks_total, and func.divergence_total
// by the mismatched-word count. CHECK-fails if compilation fails.
FidelityReport cross_validate(const Network& net, Policy policy,
                              const AcceleratorConfig& config,
                              std::uint64_t seed = 42);

}  // namespace cbrain::func
