// The functional tier's shape-specialized conv kernels (depthwise plane,
// direct pointwise, and the GEMM path with its 1x1 gather), checked
// against the golden conv2d_ref on live data: He-uniform weights,
// full-range int16 inputs including -32768, every SIMD backend the host
// has, intra_jobs 1 and 4. Adversarial filters that break the i32 bound
// must fall back to an exact kernel — pinned through
// FuncExecutor::kernel — and still match the reference bit for bit.
// MobileNetV1 closes the loop: functional vs cycle-exact simulator on
// live weights, every separable layer on its specialized kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cbrain/common/rng.hpp"
#include "cbrain/compiler/compiler.hpp"
#include "cbrain/func/executor.hpp"
#include "cbrain/func/kernels.hpp"
#include "cbrain/nn/zoo.hpp"
#include "cbrain/ref/conv_ref.hpp"
#include "cbrain/ref/executor.hpp"
#include "cbrain/sim/executor.hpp"
#include "cbrain/simd/simd.hpp"
#include "support.hpp"

namespace cbrain {
namespace {

using func::ConvKernel;

class BackendGuard {
 public:
  BackendGuard() : saved_(simd::active_backend()) {}
  ~BackendGuard() { simd::select_backend(saved_); }

 private:
  simd::Backend saved_;
};

std::vector<simd::Backend> host_backends() {
  std::vector<simd::Backend> v;
  for (simd::Backend b : {simd::Backend::kScalar, simd::Backend::kSse2,
                          simd::Backend::kAvx2})
    if (simd::backend_supported(b)) v.push_back(b);
  return v;
}

Fixed16 raw(std::int64_t v) {
  return Fixed16::from_raw(static_cast<Fixed16::raw_t>(v));
}

// Full-range int16 data; every 5th element sits at an extreme, most of
// them -32768, so pair products reach (-32768)^2.
Tensor3<Fixed16> full_range_input(MapDims d, std::uint64_t seed) {
  Rng rng(seed);
  Tensor3<Fixed16> t(d, DataOrder::kSpatialMajor);
  i64 i = 0;
  for (auto& v : t.storage()) {
    if (i++ % 5 == 0)
      v = raw(rng.next_int(0, 3) == 0 ? 32767 : -32768);
    else
      v = raw(rng.next_int(-32768, 32767));
  }
  return t;
}

// He-uniform weights, +-sqrt(6 / fan_in) in Q7.8, drawn as raw integers.
Tensor4<Fixed16> he_weights(KernelDims wd, std::uint64_t seed) {
  Rng rng(seed);
  Tensor4<Fixed16> w(wd);
  const double fan_in = static_cast<double>(wd.din * wd.kh * wd.kw);
  const i64 bound = std::lround(std::sqrt(6.0 / fan_in) * Fixed16::kOne);
  for (auto& v : w.storage()) v = raw(rng.next_int(-bound, bound));
  return w;
}

std::vector<Fixed16> full_range_bias(i64 dout, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Fixed16> b(static_cast<std::size_t>(dout));
  for (auto& v : b) v = raw(rng.next_int(-32768, 32767));
  return b;
}

NetParamsData<Fixed16> he_params(const Network& net, std::uint64_t seed) {
  NetParamsData<Fixed16> out;
  out.per_layer.resize(static_cast<std::size_t>(net.size()));
  for (const Layer& l : net.layers()) {
    const KernelDims wd = l.weight_dims();
    if (wd.count() == 0) continue;
    auto& d = out.per_layer[static_cast<std::size_t>(l.id)];
    d.weights = he_weights(wd, seed + static_cast<std::uint64_t>(l.id));
    Rng rng(seed ^ (0x5151u + static_cast<std::uint64_t>(l.id)));
    d.bias.resize(static_cast<std::size_t>(wd.dout));
    for (auto& b : d.bias) b = raw(rng.next_int(-26, 26));  // +-0.1
  }
  return out;
}

// One conv layer over `batch` full-range images: pack_layer must pick
// `want`, and conv2d_func_batch must reproduce conv2d_ref on every host
// backend at intra_jobs 1 and 4.
void check_layer(MapDims in, const ConvParams& p, i64 batch,
                 const Tensor4<Fixed16>& w, const std::vector<Fixed16>& bias,
                 ConvKernel want, std::uint64_t seed) {
  Network net("layer");
  const LayerId id = net.add_conv(net.add_input(in), "conv", p);
  const Layer& l = net.layer(id);
  const func::PackedLayer pl = func::pack_layer(l, w, bias);
  ASSERT_EQ(pl.kernel, want) << func::conv_kernel_name(pl.kernel);

  std::vector<Tensor3<Fixed16>> inputs;
  std::vector<Tensor3<Fixed16>> expected;
  for (i64 b = 0; b < batch; ++b) {
    inputs.push_back(full_range_input(in, seed + static_cast<u64>(b)));
    expected.push_back(conv2d_ref(inputs.back(), w, bias, p));
  }
  std::vector<const Tensor3<Fixed16>*> in_ptrs;
  for (const auto& t : inputs) in_ptrs.push_back(&t);

  BackendGuard guard;
  for (simd::Backend be : host_backends()) {
    simd::select_backend(be);
    for (i64 intra : {i64{1}, i64{4}}) {
      SCOPED_TRACE(std::string(simd::backend_name(be)) +
                   " intra_jobs=" + std::to_string(intra));
      std::vector<Tensor3<Fixed16>> outs;
      for (i64 b = 0; b < batch; ++b)
        outs.emplace_back(l.out_dims, DataOrder::kSpatialMajor);
      std::vector<Tensor3<Fixed16>*> out_ptrs;
      for (auto& t : outs) out_ptrs.push_back(&t);
      func::GemmScratch scratch;
      func::conv2d_func_batch(in_ptrs, pl, p, intra, scratch, out_ptrs);
      for (i64 b = 0; b < batch; ++b)
        ASSERT_TRUE(test::tensors_equal(expected[static_cast<std::size_t>(b)],
                                        outs[static_cast<std::size_t>(b)]))
            << "image " << b;
    }
  }
}

struct Shape {
  i64 k, stride, pad, dilation;
};

// k in {1,3,5} x stride {1,2,3} x pad {0,1,2} (below k_eff) x dilation
// {1,2}; each
// case gets two widths from a schedule that walks all of 1..33 and a
// batch size from {1,3,8}. The visitor receives (shape, width, batch).
template <typename Fn>
void for_each_shape(Fn&& fn) {
  i64 i = 0;
  for (i64 k : {1, 3, 5})
    for (i64 s : {1, 2, 3})
      for (i64 pad : {0, 1, 2})
        for (i64 d : {1, 2}) {
          if (k == 1 && d == 2) continue;  // a 1-tap filter has no spacing
          const i64 k_eff = (k - 1) * d + 1;
          if (pad >= k_eff) continue;  // the builder rejects it
          for (i64 j = 0; j < 2; ++j, ++i) {
            const i64 width = std::max(1 + (i * 5) % 33, k_eff - 2 * pad);
            const i64 batch = i % 3 == 0 ? 1 : i % 3 == 1 ? 3 : 8;
            fn(Shape{k, s, pad, d}, width, batch);
          }
        }
}

std::string describe(const Shape& s, i64 width, i64 batch) {
  return "k=" + std::to_string(s.k) + " s=" + std::to_string(s.stride) +
         " pad=" + std::to_string(s.pad) + " d=" + std::to_string(s.dilation) +
         " w=" + std::to_string(width) + " B=" + std::to_string(batch);
}

TEST(ConvKernels, DepthwiseMatchesReferenceAcrossShapes) {
  std::uint64_t seed = 1;
  for_each_shape([&](const Shape& s, i64 width, i64 batch) {
    SCOPED_TRACE(describe(s, width, batch));
    const i64 ch = 3;
    const i64 height = std::max<i64>(5, (s.k - 1) * s.dilation + 1);
    const ConvParams p{.dout = ch, .k = s.k, .stride = s.stride,
                       .pad = s.pad, .groups = ch, .dilation = s.dilation};
    const Tensor4<Fixed16> w = he_weights({ch, 1, s.k, s.k}, seed);
    check_layer({ch, height, width}, p, batch, w, full_range_bias(ch, seed),
                ConvKernel::kDepthwiseI32, seed);
    ++seed;
  });
}

TEST(ConvKernels, DenseGemmMatchesReferenceAcrossShapes) {
  // groups == 1 k x k layers stay on im2row + GEMM (k == 1 with stride
  // > 1 through the blocked 1x1 gather).
  std::uint64_t seed = 100;
  for_each_shape([&](const Shape& s, i64 width, i64 batch) {
    if (s.k == 1 && s.stride == 1 && s.pad == 0) return;  // pointwise
    SCOPED_TRACE(describe(s, width, batch));
    const i64 height = std::max<i64>(4, (s.k - 1) * s.dilation + 1);
    const ConvParams p{.dout = 5, .k = s.k, .stride = s.stride,
                       .pad = s.pad, .dilation = s.dilation};
    const Tensor4<Fixed16> w = he_weights({5, 3, s.k, s.k}, seed);
    check_layer({3, height, width}, p, batch, w, full_range_bias(5, seed),
                ConvKernel::kGemmDeepWindow, seed);
    ++seed;
  });
}

TEST(ConvKernels, PointwiseMatchesReferenceAcrossShapes) {
  std::uint64_t seed = 200;
  i64 i = 0;
  for (i64 din : {1, 2, 3, 17, 32})
    for (i64 dout : {1, 5, 19}) {
      for (i64 j = 0; j < 3; ++j, ++i) {
        const i64 width = 1 + (i * 7) % 33;
        const i64 height = 1 + i % 3;
        const i64 batch = i % 3 == 0 ? 1 : i % 3 == 1 ? 3 : 8;
        SCOPED_TRACE("din=" + std::to_string(din) +
                     " dout=" + std::to_string(dout) + " w=" +
                     std::to_string(width) + " h=" + std::to_string(height) +
                     " B=" + std::to_string(batch));
        // 1 -> 1 maps is also the depthwise plane kernel's shape.
        const ConvKernel want = din == 1 && dout == 1
                                    ? ConvKernel::kDepthwiseI32
                                    : ConvKernel::kPointwiseDirect;
        const ConvParams p{.dout = dout, .k = 1};
        check_layer({din, height, width}, p, batch,
                    he_weights({dout, din, 1, 1}, seed),
                    full_range_bias(dout, seed), want, seed);
        ++seed;
      }
    }
}

TEST(ConvKernels, WidePlanesAndLargeStridesTakeTheClippedPath) {
  // Rows too wide for the vector kernels' row window, and stride 3,
  // run the portable clipped loop at int32 on the vector backends.
  const ConvParams wide{.dout = 2, .k = 3, .stride = 1, .pad = 1,
                        .groups = 2};
  check_layer({2, 3, 3000}, wide, 2, he_weights({2, 1, 3, 3}, 7),
              full_range_bias(2, 7), ConvKernel::kDepthwiseI32, 7);
  const ConvParams s3{.dout = 2, .k = 3, .stride = 3, .pad = 2, .groups = 2,
                      .dilation = 2};
  check_layer({2, 17, 29}, s3, 3, he_weights({2, 1, 3, 3}, 8),
              full_range_bias(2, 8), ConvKernel::kDepthwiseI32, 8);
}

// --- the i32 bound and its fallbacks ------------------------------------

Tensor4<Fixed16> filled(KernelDims wd, const std::vector<std::int64_t>& row) {
  Tensor4<Fixed16> w(wd);
  i64 i = 0;
  for (auto& v : w.storage())
    v = raw(row[static_cast<std::size_t>(i++ % static_cast<i64>(row.size()))]);
  return w;
}

TEST(ConvKernels, BoundIsExactAtTheThreshold) {
  // 32768 * sum|w| <= 2^31 - 1  <=>  sum|w| <= 65535 per filter row.
  std::vector<std::int16_t> pass = {-32768, 32767};
  std::vector<std::int16_t> fail = {-32768, -32768};
  EXPECT_TRUE(simd::i32_rows_ok(pass.data(), 2, 1, 2));
  EXPECT_FALSE(simd::i32_rows_ok(fail.data(), 2, 1, 2));

  // Depthwise at exactly 65535 (9 taps) stays on the i32 kernel, one more
  // drops to int64; both stay exact on an input of extremes.
  const ConvParams dw{.dout = 2, .k = 3, .stride = 1, .pad = 1, .groups = 2};
  const std::vector<std::int64_t> at = {7281, 7281, 7281, 7281, 7281,
                                        7281, 7281, 7281, 7287};
  std::vector<std::int64_t> over = at;
  over[8] += 1;
  check_layer({2, 6, 11}, dw, 3, filled({2, 1, 3, 3}, at),
              full_range_bias(2, 3), ConvKernel::kDepthwiseI32, 3);
  check_layer({2, 6, 11}, dw, 3, filled({2, 1, 3, 3}, over),
              full_range_bias(2, 4), ConvKernel::kDepthwiseI64, 4);

  // Pointwise at the bound with a -32768 weight: direct; past it: GEMM.
  const ConvParams pw{.dout = 3, .k = 1};
  check_layer({2, 3, 13}, pw, 3, filled({3, 2, 1, 1}, {-32768, 32767}),
              full_range_bias(3, 5), ConvKernel::kPointwiseDirect, 5);
  // (-32768, -32768) is the pmaddwd pair-wrap filter: exact GEMM only.
  check_layer({2, 3, 13}, pw, 3, filled({3, 2, 1, 1}, {-32768, -32768}),
              full_range_bias(3, 6), ConvKernel::kGemmExact, 6);
  // Large but wrap-free weights fail the row bound yet fit a deep window.
  check_layer({4, 3, 13}, pw, 8, filled({3, 4, 1, 1}, {30000}),
              full_range_bias(3, 7), ConvKernel::kGemmDeepWindow, 7);
}

TEST(ConvKernels, ExecutorPinsFallbacksAndStaysExact) {
  // A separable toy net whose dw and pw filters break the bound: the
  // accessor must report the exact fallbacks, and a full inference must
  // still equal the golden reference on every backend.
  Network net("adversarial_separable");
  const LayerId in = net.add_input({4, 9, 9});
  const LayerId dw_ok = net.add_conv(
      in, "dw_ok", {.dout = 4, .k = 3, .stride = 1, .pad = 1, .groups = 4});
  const LayerId dw_big = net.add_conv(
      dw_ok, "dw_big",
      {.dout = 4, .k = 3, .stride = 2, .pad = 1, .groups = 4});
  const LayerId pw_ok = net.add_conv(dw_big, "pw_ok", {.dout = 6, .k = 1});
  const LayerId pw_wrap =
      net.add_conv(pw_ok, "pw_wrap", {.dout = 4, .k = 1, .relu = false});
  const LayerId pool = net.add_pool(
      pw_wrap, "pool", {.kind = PoolKind::kAvg, .k = 5, .stride = 1});
  const LayerId fc = net.add_fc(pool, "fc", {.dout = 3, .relu = false});

  NetParamsData<Fixed16> params = he_params(net, 11);
  auto& big = params.per_layer[static_cast<std::size_t>(dw_big)].weights;
  for (auto& v : big.storage()) v = raw(20000);
  auto& wrap = params.per_layer[static_cast<std::size_t>(pw_wrap)].weights;
  for (auto& v : wrap.storage()) v = raw(-32768);

  auto compiled =
      compile_network(net, Policy::kAdaptive2, AcceleratorConfig{});
  ASSERT_TRUE(compiled.is_ok());
  const Tensor3<Fixed16> input = full_range_input({4, 9, 9}, 12);
  RefExecutor<Fixed16> ref(net, params);
  const Tensor3<Fixed16> want = ref.run(input);

  BackendGuard guard;
  for (simd::Backend be : host_backends()) {
    simd::select_backend(be);
    SCOPED_TRACE(simd::backend_name(be));
    func::FuncExecutor exec(net, compiled.value(), AcceleratorConfig{});
    exec.load_params(params);
    EXPECT_EQ(exec.kernel(dw_ok), ConvKernel::kDepthwiseI32);
    EXPECT_EQ(exec.kernel(dw_big), ConvKernel::kDepthwiseI64);
    EXPECT_EQ(exec.kernel(pw_ok), ConvKernel::kPointwiseDirect);
    EXPECT_EQ(exec.kernel(pw_wrap), ConvKernel::kGemmExact);
    EXPECT_EQ(exec.kernel(fc), ConvKernel::kGemmDeepWindow);
    EXPECT_FALSE(exec.kernel(pool).has_value());
    EXPECT_FALSE(exec.kernel(in).has_value());
    for (i64 intra : {i64{1}, i64{4}}) {
      exec.set_intra_jobs(intra);
      EXPECT_TRUE(test::tensors_equal(want, exec.infer(input).final_output))
          << "intra_jobs=" << intra;
    }
  }
}

TEST(ConvKernels, MobileNetFunctionalMatchesCycleOnLiveWeights) {
  const Network net = zoo::mobilenetv1();
  const NetParamsData<Fixed16> params = he_params(net, 21);
  const Tensor3<Fixed16> input =
      random_input<Fixed16>(net.layer(0).out_dims, 22);
  const AcceleratorConfig config = AcceleratorConfig::paper_16_16();
  auto compiled = compile_network(net, Policy::kAdaptive2, config);
  ASSERT_TRUE(compiled.is_ok());
  SimExecutor sim(net, compiled.value(), config);
  const Tensor3<Fixed16> want = sim.run(input, params).final_output;
  // What the simulator fed each layer: the previous layer's output.
  std::vector<Tensor3<Fixed16>> consumed;
  for (const Layer& l : net.layers())
    consumed.push_back(l.kind == LayerKind::kInput ? Tensor3<Fixed16>()
                                                   : sim.read_input_cube(l.id));

  // Live data: the logits (the softmax's input) are far from constant.
  const Tensor3<Fixed16>& logits = consumed.back();
  i64 distinct = 0;
  for (std::size_t i = 1; i < logits.storage().size(); ++i)
    distinct += logits.storage()[i] != logits.storage()[0];
  EXPECT_GT(distinct, 500);

  BackendGuard guard;
  for (simd::Backend be : host_backends()) {
    simd::select_backend(be);
    SCOPED_TRACE(simd::backend_name(be));
    func::FuncExecutor exec(net, compiled.value(), config);
    exec.load_params(params);
    for (const Layer& l : net.layers()) {
      if (!l.is_conv()) continue;
      const ConvKernel k = *exec.kernel(l.id);
      if (l.conv().groups > 1)
        EXPECT_EQ(k, ConvKernel::kDepthwiseI32) << l.name;
      else if (l.conv().k == 1)
        EXPECT_EQ(k, ConvKernel::kPointwiseDirect) << l.name;
      else
        EXPECT_EQ(k, ConvKernel::kGemmDeepWindow) << l.name;
    }
    EXPECT_TRUE(test::tensors_equal(want, exec.infer(input).final_output));
    for (const Layer& l : net.layers()) {
      if (l.kind == LayerKind::kInput) continue;
      EXPECT_TRUE(test::tensors_equal(
          consumed[static_cast<std::size_t>(l.id)], exec.output(l.inputs[0])))
          << "input of " << l.name;
    }
  }
}

}  // namespace
}  // namespace cbrain
