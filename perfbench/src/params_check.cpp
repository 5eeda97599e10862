// perfbench_params_check — liveness of the benchmark's parameters.
//
// Runs the golden RefExecutor<Fixed16> once per benchmark network on the
// parameters and first input perfbench generates at the default seed,
// and for every conv, fc and eltwise-add layer prints the fraction of
// nonzero output values and the count of values saturated at the Q7.8
// limits. Fails (exit 1) when any such layer is below the nonzero
// floor: timings on a tensor that rounds to zero would measure nothing.
//
//   perfbench_params_check [--seed N]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cbrain/nn/zoo.hpp"
#include "cbrain/ref/executor.hpp"
#include "live_params.hpp"

namespace {

constexpr double kNonzeroFloor = 0.01;

bool checked_kind(cbrain::LayerKind k) {
  return k == cbrain::LayerKind::kConv || k == cbrain::LayerKind::kFC ||
         k == cbrain::LayerKind::kEltwiseAdd;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  if (argc == 3 && std::string(argv[1]) == "--seed")
    seed = std::strtoull(argv[2], nullptr, 10);
  int failures = 0;
  for (const cbrain::Network& net :
       {cbrain::zoo::alexnet(), cbrain::zoo::mobilenetv1(),
        cbrain::zoo::resnet18()}) {
    const auto params = perfbench::live_params(net, seed);
    cbrain::RefExecutor<cbrain::Fixed16> ref(net, params);
    ref.run(perfbench::live_input(net, seed, 0));
    for (const cbrain::Layer& l : net.layers()) {
      if (!checked_kind(l.kind)) continue;
      const auto& out = ref.output(l.id);
      long long nonzero = 0, saturated = 0;
      for (const cbrain::Fixed16 v : out.storage()) {
        nonzero += v.raw() != 0;
        saturated += v.raw() == cbrain::Fixed16::kRawMax ||
                     v.raw() == cbrain::Fixed16::kRawMin;
      }
      const double frac =
          static_cast<double>(nonzero) / static_cast<double>(out.size());
      const bool ok = frac >= kNonzeroFloor;
      failures += !ok;
      std::printf("%-12s %-16s nonzero %6.2f%%  saturated %lld%s\n",
                  net.name().c_str(), l.name.c_str(), 100.0 * frac, saturated,
                  ok ? "" : "  BELOW FLOOR");
    }
  }
  if (failures > 0) {
    std::printf("FAIL: %d layer(s) below %.0f%% nonzero\n", failures,
                100.0 * kNonzeroFloor);
    return 1;
  }
  std::printf("OK: every conv/fc/eltwise layer is at least %.0f%% nonzero\n",
              100.0 * kNonzeroFloor);
  return 0;
}
