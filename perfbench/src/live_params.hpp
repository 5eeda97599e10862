// Live synthetic parameters for the benchmark.
//
// The zoo's init_net_params draws weights in +-1/fan_in, which Q7.8
// rounds to exactly zero for every layer with fan_in > 512, so timings
// on those parameters would measure all-zero tensors. The benchmark
// draws its own instead: He-uniform weights in +-sqrt(6/fan_in) and
// biases in +-0.1, directly as Q7.8 raw integers (one xoshiro draw per
// value, no float rounding on the path). Each layer has its own stream
// keyed by (seed, layer id), so the values do not depend on the order
// layers are visited.
#pragma once

#include <cmath>
#include <cstdint>

#include "cbrain/common/rng.hpp"
#include "cbrain/fixed/fixed16.hpp"
#include "cbrain/ref/params.hpp"

namespace perfbench {

using cbrain::Fixed16;

inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over (seed, stream): decorrelates nearby seeds.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Uniform Q7.8 raw value in [-bound, bound].
inline Fixed16 uniform_raw(cbrain::Rng& rng, std::int64_t bound) {
  return Fixed16::from_raw(static_cast<Fixed16::raw_t>(rng.next_int(-bound, bound)));
}

inline std::int64_t raw_bound(double real) {
  return static_cast<std::int64_t>(std::lround(real * Fixed16::kOne));
}

inline cbrain::NetParamsData<Fixed16> live_params(const cbrain::Network& net,
                                                  std::uint64_t seed) {
  cbrain::NetParamsData<Fixed16> out;
  out.per_layer.resize(static_cast<std::size_t>(net.size()));
  for (const cbrain::Layer& l : net.layers()) {
    const cbrain::KernelDims wd = l.weight_dims();
    if (wd.count() == 0) continue;
    cbrain::Rng rng(mix_seed(seed, static_cast<std::uint64_t>(l.id)));
    auto& data = out.per_layer[static_cast<std::size_t>(l.id)];
    data.weights = cbrain::Tensor4<Fixed16>(wd);
    const double fan_in = static_cast<double>(wd.din * wd.kh * wd.kw);
    const std::int64_t wb = raw_bound(std::sqrt(6.0 / fan_in));
    for (auto& w : data.weights.storage()) w = uniform_raw(rng, wb);
    const std::int64_t bb = raw_bound(0.1);
    data.bias.resize(static_cast<std::size_t>(wd.dout));
    for (auto& b : data.bias) b = uniform_raw(rng, bb);
  }
  return out;
}

// Input image with values in [-1, 1], from its own stream of the seed.
inline cbrain::Tensor3<Fixed16> live_input(const cbrain::Network& net,
                                           std::uint64_t seed,
                                           std::uint64_t index) {
  cbrain::Rng rng(mix_seed(seed, 0x1000000ull + index));
  cbrain::Tensor3<Fixed16> t(net.layer(0).out_dims);
  const std::int64_t b = raw_bound(1.0);
  for (auto& v : t.storage()) v = uniform_raw(rng, b);
  return t;
}

}  // namespace perfbench
