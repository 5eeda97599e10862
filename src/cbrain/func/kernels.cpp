#include "cbrain/func/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>

#include "cbrain/common/check.hpp"
#include "cbrain/common/thread_pool.hpp"
#include "cbrain/ref/arith_traits.hpp"
#include "cbrain/simd/simd.hpp"

namespace cbrain::func {

static_assert(sizeof(Fixed16) == sizeof(std::int16_t) &&
                  std::is_standard_layout_v<Fixed16>,
              "the kernels read and write Fixed16 storage as raw int16");

namespace {

// Weight rows handed to one multi-RHS call. Matches the simulator's
// lane-group width (kMultiRows in the scheme executors): a band of ~16
// rows × a few-hundred-word patch stays L2-resident while the patches
// stream.
constexpr i64 kRowChunk = 16;

// Patch columns per multi-RHS call: each weight chunk loaded into
// registers is amortized over this many right-hand sides. 8 keeps the
// accumulator tile (16×8 int64) within a stack cache line budget and
// matches the AVX2 kernels' 2×2 register blocking.
constexpr i64 kColChunk = 8;

// Elements (int16) per im2row band buffer: bounds the gather scratch at
// ~2 MB and amortizes each weight chunk over thousands of columns.
constexpr i64 kBandElems = i64{1} << 20;

// How many columns of `col_elems` int16 each fit in one band.
i64 cols_per_band(i64 col_elems, i64 cols) {
  const i64 by_mem =
      std::max<i64>(i64{1}, kBandElems / std::max<i64>(i64{1}, col_elems));
  return std::min(cols, by_mem);
}

using MrhsFn = void (*)(const std::int16_t*, i64, i64, const std::int16_t*,
                        i64, i64, i64, Fixed16::acc_t*, i64);

MrhsFn mrhs_kernel(ConvKernel k) {
  switch (k) {
    case ConvKernel::kGemmDeepWindow:
      return simd::dot_s16_mrhs_dw;
    case ConvKernel::kGemmNoWrap:
      return simd::dot_s16_mrhs_nw;
    default:
      break;
  }
  return simd::dot_s16_mrhs;
}

}  // namespace

const char* conv_kernel_name(ConvKernel k) {
  switch (k) {
    case ConvKernel::kGemmNoWrap:
      return "gemm_no_wrap";
    case ConvKernel::kGemmDeepWindow:
      return "gemm_deep_window";
    case ConvKernel::kDepthwiseI32:
      return "depthwise_i32";
    case ConvKernel::kDepthwiseI64:
      return "depthwise_i64";
    case ConvKernel::kPointwiseDirect:
      return "pointwise_direct";
    case ConvKernel::kGemmExact:
      break;
  }
  return "gemm_exact";
}

WeightMode classify_weights(const std::int16_t* weights, i64 rows,
                            i64 row_len) {
  // A -32768 weight can wrap the biased pmaddwd pair sums, so its
  // presence forces the full-range kernel regardless of magnitudes.
  const i64 total = rows * row_len;
  for (i64 i = 0; i < total; ++i)
    if (weights[i] == std::numeric_limits<std::int16_t>::min())
      return WeightMode::kExact;
  if (simd::deep_window_ok(weights, row_len, rows, row_len))
    return WeightMode::kDeepWindow;
  return WeightMode::kNoWrap;
}

namespace {

ConvKernel gemm_kernel(WeightMode m) {
  switch (m) {
    case WeightMode::kNoWrap:
      return ConvKernel::kGemmNoWrap;
    case WeightMode::kDeepWindow:
      return ConvKernel::kGemmDeepWindow;
    case WeightMode::kExact:
      break;
  }
  return ConvKernel::kGemmExact;
}

// One input map and one output map per group: the depthwise plane
// kernel's shape (groups == din == dout, including the din == 1 case).
bool is_depthwise(const Layer& l) {
  const ConvParams& p = l.conv();
  return p.din_per_group(l.in_dims.d) == 1 && p.dout_per_group() == 1;
}

// 1x1, unit stride, no padding, one group: the output is the weight
// matrix times the [din][pixels] input as it lies in memory.
bool is_pointwise(const ConvParams& p) {
  return p.k == 1 && p.stride == 1 && p.pad == 0 && p.groups == 1;
}

std::vector<Fixed16::acc_t> promote_bias(const std::vector<Fixed16>& bias,
                                         i64 dout) {
  using Tr = ArithTraits<Fixed16>;
  CBRAIN_CHECK(bias.empty() || static_cast<i64>(bias.size()) == dout,
               "bias size mismatch");
  std::vector<Fixed16::acc_t> acc(static_cast<std::size_t>(dout), 0);
  for (std::size_t o = 0; o < bias.size(); ++o)
    acc[o] = Tr::from_value(bias[o]);
  return acc;
}

}  // namespace

PackedLayer pack_layer(const Layer& l, const Tensor4<Fixed16>& weights,
                       const std::vector<Fixed16>& bias) {
  CBRAIN_CHECK(l.is_conv() || l.is_fc(), "pack_layer needs a conv or FC");
  const KernelDims wd = weights.dims();
  CBRAIN_CHECK(wd == l.weight_dims(),
               "weight dims mismatch for layer " << l.name);
  // Tensor4 storage is already contiguous (din, ky, kx) rows per output
  // map, so packing re-types each row into its zero-padded
  // gemm_row_stride slot.
  PackedLayer pl;
  const i64 dout = l.is_conv() ? l.conv().dout : l.fc().dout;
  const i64 row_len = wd.count() / dout;
  const i64 stride = gemm_row_stride(row_len);
  pl.weights.assign(static_cast<std::size_t>(dout * stride), 0);
  const Fixed16* w = weights.raw_data();
  for (i64 o = 0; o < dout; ++o)
    for (i64 i = 0; i < row_len; ++i)
      pl.weights[static_cast<std::size_t>(o * stride + i)] =
          w[o * row_len + i].raw();
  pl.bias_acc = promote_bias(bias, dout);
  // Shape first, then one pass over the weights for the bound; only
  // layers left on the GEMM pay for its tier classification.
  const bool depthwise = l.is_conv() && is_depthwise(l);
  if (depthwise || (l.is_conv() && is_pointwise(l.conv()))) {
    const bool i32 =
        simd::i32_rows_ok(pl.weights.data(), stride, dout, row_len);
    if (depthwise) {
      pl.kernel = i32 ? ConvKernel::kDepthwiseI32 : ConvKernel::kDepthwiseI64;
      return pl;
    }
    if (i32) {
      pl.kernel = ConvKernel::kPointwiseDirect;
      return pl;
    }
  }
  pl.kernel = gemm_kernel(classify_weights(pl.weights.data(), dout, stride));
  return pl;
}

namespace {

template <typename T>
T* ensure(std::vector<T>& v, i64 elems, i64& growths) {
  if (static_cast<i64>(v.size()) < elems) {
    v.resize(static_cast<std::size_t>(elems));
    ++growths;
  }
  return v.data();
}

}  // namespace

std::int16_t* GemmScratch::ensure_band(i64 elems) {
  return ensure(band, elems, growths);
}

std::int16_t* GemmScratch::ensure_flat(i64 elems) {
  return ensure(flat, elems, growths);
}

std::int16_t* GemmScratch::ensure_pairs(i64 elems) {
  return ensure(pairs, elems, growths);
}

i64* GemmScratch::ensure_taps(i64 elems) {
  return ensure(taps, elems, growths);
}

void im2row_s16(const Tensor3<Fixed16>& input, i64 din_begin, i64 din_count,
                const ConvParams& p, i64 pix0, i64 npix,
                std::int16_t* patches, i64 patch_stride) {
  const MapDims in = input.dims();
  const i64 ow = conv_out_extent(in.w, p.k_eff(), p.stride, p.pad);
  const i64 krow = din_count * p.k * p.k;
  CBRAIN_CHECK(patch_stride >= krow, "im2row patch stride below row length");
  const Fixed16* base = input.raw_data();
  if (p.k == 1) {
    // 1x1 windows (pad < k_eff makes pad 0): the patch matrix is a
    // strided transpose of the channel planes. Blocks of 16 channels
    // keep each block's source rows cache-resident while t sweeps the
    // pixels, and each element moves as one int16, not one memcpy call.
    CBRAIN_CHECK(p.pad == 0, "1x1 conv with padding");
    constexpr i64 kBlock = 16;
    const i64 plane = in.h * in.w;
    for (i64 t = 0; t < npix; ++t)
      std::fill(patches + t * patch_stride + krow,
                patches + (t + 1) * patch_stride, std::int16_t{0});
    for (i64 c0 = 0; c0 < din_count; c0 += kBlock) {
      const i64 cn = std::min(kBlock, din_count - c0);
      const Fixed16* src0 = base + (din_begin + c0) * plane;
      i64 oy = pix0 / ow, ox = pix0 % ow;
      for (i64 t = 0; t < npix; ++t) {
        std::int16_t* dst = patches + t * patch_stride + c0;
        const Fixed16* src = src0 + (oy * in.w + ox) * p.stride;
        for (i64 j = 0; j < cn; ++j) dst[j] = src[j * plane].raw();
        if (++ox == ow) {
          ox = 0;
          ++oy;
        }
      }
    }
    return;
  }
  if (p.dilation != 1) {
    // Dilated taps are never contiguous, so there is no row-copy to
    // exploit: gather per tap, with out-of-bounds taps as exact zeros
    // (matching at_padded() in the golden loop nest).
    for (i64 t = 0; t < npix; ++t) {
      const i64 pix = pix0 + t;
      const i64 base_y = (pix / ow) * p.stride - p.pad;
      const i64 base_x = (pix % ow) * p.stride - p.pad;
      std::int16_t* patch = patches + t * patch_stride;
      std::fill(patch, patch + patch_stride, std::int16_t{0});
      for (i64 id = 0; id < din_count; ++id) {
        const Fixed16* plane = base + (din_begin + id) * in.h * in.w;
        std::int16_t* dst_plane = patch + id * p.k * p.k;
        for (i64 ky = 0; ky < p.k; ++ky) {
          const i64 y = base_y + ky * p.dilation;
          if (y < 0 || y >= in.h) continue;
          for (i64 kx = 0; kx < p.k; ++kx) {
            const i64 x = base_x + kx * p.dilation;
            if (x < 0 || x >= in.w) continue;
            dst_plane[ky * p.k + kx] = plane[y * in.w + x].raw();
          }
        }
      }
    }
    return;
  }
  for (i64 t = 0; t < npix; ++t) {
    const i64 pix = pix0 + t;
    const i64 base_y = (pix / ow) * p.stride - p.pad;
    const i64 base_x = (pix % ow) * p.stride - p.pad;
    // Clip the kernel window against the input once per pixel; the
    // interior (no-pad) common case copies whole kx rows.
    const i64 ky_lo = std::max<i64>(i64{0}, -base_y);
    const i64 ky_hi = std::min(p.k, in.h - base_y);
    const i64 kx_lo = std::max<i64>(i64{0}, -base_x);
    const i64 kx_hi = std::min(p.k, in.w - base_x);
    std::int16_t* patch = patches + t * patch_stride;
    // Interior pixels overwrite every patch byte with row copies below;
    // only clipped (padded) windows need the zero fill that makes padded
    // taps contribute exact zero products — the same value at_padded()
    // feeds the golden loop nest. The SIMD-alignment tail always zeroes
    // (its products pair padded weight zeros, contributing nothing).
    if (ky_lo > 0 || ky_hi < p.k || kx_lo > 0 || kx_hi < p.k)
      std::fill(patch, patch + krow, std::int16_t{0});
    if (patch_stride > krow)
      std::fill(patch + krow, patch + patch_stride, std::int16_t{0});
    for (i64 id = 0; id < din_count; ++id) {
      const Fixed16* plane =
          base + (din_begin + id) * in.h * in.w;
      std::int16_t* dst_plane = patch + id * p.k * p.k;
      for (i64 ky = ky_lo; ky < ky_hi; ++ky) {
        const Fixed16* row = plane + (base_y + ky) * in.w + base_x;
        // Fixed16 is a single int16 (standard layout), so a whole clipped
        // kx row copies as raw bytes.
        std::memcpy(dst_plane + ky * p.k + kx_lo, row + kx_lo,
                    static_cast<std::size_t>(kx_hi - kx_lo) *
                        sizeof(std::int16_t));
      }
    }
  }
}

namespace {

// Fixed16 is a standard-layout wrapper of one int16 (static_assert
// above), so a tensor's storage is an int16 array the simd kernels read
// and write in place.
const std::int16_t* raw16(const Fixed16* p) {
  return reinterpret_cast<const std::int16_t*>(p);
}
std::int16_t* raw16(Fixed16* p) { return reinterpret_cast<std::int16_t*>(p); }

// Depthwise path: one input plane -> one output plane per group, on the
// simd plane kernel. im2row + GEMM degenerates here (each packed weight
// panel is a single k*k row, so the multi-RHS kernels amortize nothing).
// Each output column's tap range is clipped once per layer; the i32
// kernel runs when the pack-time bound holds, the int64 one otherwise.
// Parallel grain: one (image, channel) plane per task.
void depthwise_func_batch(const std::vector<const Tensor3<Fixed16>*>& inputs,
                          const PackedLayer& pl, const ConvParams& p,
                          i64 intra_jobs, GemmScratch& scratch,
                          const std::vector<Tensor3<Fixed16>*>& outputs) {
  const i64 batch = static_cast<i64>(inputs.size());
  const MapDims in = inputs[0]->dims();
  const i64 krow_s = gemm_row_stride(p.k * p.k);
  simd::DwGeometry g;
  g.in_h = in.h;
  g.in_w = in.w;
  g.out_h = conv_out_extent(in.h, p.k_eff(), p.stride, p.pad);
  g.out_w = conv_out_extent(in.w, p.k_eff(), p.stride, p.pad);
  g.k = p.k;
  g.stride = p.stride;
  g.pad = p.pad;
  g.dilation = p.dilation;
  // Output column ox reads input column ox*stride - pad + kx*d: clip
  // each column's tap range once per layer.
  i64* taps = scratch.ensure_taps(2 * g.out_w);
  for (i64 ox = 0; ox < g.out_w; ++ox) {
    const i64 x0 = ox * p.stride - p.pad;
    const i64 lo = x0 >= 0 ? 0 : ceil_div(-x0, p.dilation);
    const i64 hi = in.w - x0 <= 0
                       ? 0
                       : std::min(p.k, ceil_div(in.w - x0, p.dilation));
    taps[ox] = lo;
    taps[g.out_w + ox] = std::max(lo, hi);
  }
  g.tap_lo = taps;
  g.tap_hi = taps + g.out_w;
  const auto kernel = pl.kernel == ConvKernel::kDepthwiseI32
                          ? simd::dwconv_s16
                          : simd::dwconv_s16_wide;
  parallel::parallel_for(
      batch * p.dout,
      [&](i64 item) {
        const auto b = static_cast<std::size_t>(item / p.dout);
        const i64 c = item % p.dout;
        kernel(raw16(inputs[b]->raw_data()) + c * in.h * in.w, g,
               pl.weights.data() + c * krow_s,
               pl.bias_acc[static_cast<std::size_t>(c)], p.relu,
               raw16(outputs[b]->raw_data()) + c * g.out_h * g.out_w);
      },
      intra_jobs);
}

// Channel-pair rows per pointwise block are capped at this many int16
// (512 KB): the block's pair rows stay cache-resident while every filter
// row sweeps them.
constexpr i64 kPairElems = i64{1} << 18;

// Pointwise path: the [din][pixels] input already is the GEMM's
// right-hand matrix, so no im2row runs. Each block of pixels is
// interleaved into channel-pair rows (the pmaddwd operand order) and the
// simd kernel sweeps the filter rows over it, writing finished outputs.
// Parallel grain: the pair interleave by pair-row slices, then
// kRowChunk-row chunks of filters, as in the GEMM path.
void pointwise_func_batch(const std::vector<const Tensor3<Fixed16>*>& inputs,
                          const PackedLayer& pl, const ConvParams& p,
                          i64 intra_jobs, GemmScratch& scratch,
                          const std::vector<Tensor3<Fixed16>*>& outputs) {
  const MapDims in = inputs[0]->dims();
  const i64 npix = in.h * in.w;
  const i64 kpairs = ceil_div(in.d, 2);
  const i64 krow_s = gemm_row_stride(in.d);
  // Block columns: a multiple of 8 (the kernels' tile tail), as many as
  // fit the pair-row budget.
  const i64 block = std::min(
      round_up(npix, 8),
      std::max<i64>(8, kPairElems / (2 * kpairs) / 8 * 8));
  const i64 pair_stride = 2 * block;
  std::int16_t* pairs = scratch.ensure_pairs(kpairs * pair_stride);
  const i64 row_chunks = ceil_div(p.dout, kRowChunk);
  const i64 pslices = std::min(intra_jobs, kpairs);
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    const std::int16_t* x = raw16(inputs[b]->raw_data());
    std::int16_t* out = raw16(outputs[b]->raw_data());
    for (i64 pix0 = 0; pix0 < npix; pix0 += block) {
      const i64 n = std::min(block, npix - pix0);
      const i64 n_pad = round_up(n, 8);
      parallel::parallel_for(
          pslices,
          [&](i64 s) {
            for (i64 q = s * kpairs / pslices; q < (s + 1) * kpairs / pslices;
                 ++q) {
              const std::int16_t* c0 = x + 2 * q * npix + pix0;
              std::int16_t* dst = pairs + q * pair_stride;
              if (2 * q + 1 < in.d) {
                const std::int16_t* c1 = c0 + npix;
                for (i64 t = 0; t < n; ++t) {
                  dst[2 * t] = c0[t];
                  dst[2 * t + 1] = c1[t];
                }
              } else {
                // Odd din: the last pair's partner is a zero channel
                // (its packed weight is a zero pad too).
                for (i64 t = 0; t < n; ++t) {
                  dst[2 * t] = c0[t];
                  dst[2 * t + 1] = 0;
                }
              }
              std::fill(dst + 2 * n, dst + 2 * n_pad, std::int16_t{0});
            }
          },
          intra_jobs);
      parallel::parallel_for(
          row_chunks,
          [&](i64 chunk) {
            const i64 od0 = chunk * kRowChunk;
            const i64 rows = std::min(kRowChunk, p.dout - od0);
            simd::pwconv_s16(pairs, pair_stride, n, kpairs,
                             pl.weights.data() + od0 * krow_s, krow_s, rows,
                             pl.bias_acc.data() + od0, p.relu,
                             out + od0 * npix + pix0, npix);
          },
          intra_jobs);
    }
  }
}

}  // namespace

void conv2d_func_batch(const std::vector<const Tensor3<Fixed16>*>& inputs,
                       const PackedLayer& packed, const ConvParams& p,
                       i64 intra_jobs, GemmScratch& scratch,
                       const std::vector<Tensor3<Fixed16>*>& outputs) {
  using Tr = ArithTraits<Fixed16>;
  const i64 batch = static_cast<i64>(inputs.size());
  CBRAIN_CHECK(batch > 0 && outputs.size() == inputs.size(),
               "conv2d_func_batch needs matching input/output slots");
  const MapDims in = inputs[0]->dims();
  const i64 din_g = p.din_per_group(in.d);
  const i64 dout_g = p.dout_per_group();
  const i64 krow = din_g * p.k * p.k;
  const i64 krow_s = gemm_row_stride(krow);
  const std::vector<std::int16_t>& packed_weights = packed.weights;
  const std::vector<Fixed16::acc_t>& bias_acc = packed.bias_acc;
  CBRAIN_CHECK(static_cast<i64>(packed_weights.size()) == p.dout * krow_s,
               "packed weight size mismatch (expect gemm_row_stride rows)");
  CBRAIN_CHECK(static_cast<i64>(bias_acc.size()) == p.dout,
               "bias_acc size mismatch");
  const i64 oh = conv_out_extent(in.h, p.k_eff(), p.stride, p.pad);
  const i64 ow = conv_out_extent(in.w, p.k_eff(), p.stride, p.pad);
  const i64 cols = oh * ow;
  const MapDims od{p.dout, oh, ow};
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    CBRAIN_CHECK(inputs[b]->order() == DataOrder::kSpatialMajor &&
                     inputs[b]->dims() == in,
                 "conv2d_func_batch inputs must share one spatial-major "
                 "shape");
    CBRAIN_CHECK(outputs[b]->order() == DataOrder::kSpatialMajor &&
                     outputs[b]->dims() == od,
                 "conv2d_func_batch output tensor not pre-shaped");
  }

  switch (packed.kernel) {
    case ConvKernel::kDepthwiseI32:
    case ConvKernel::kDepthwiseI64:
      CBRAIN_CHECK(din_g == 1 && dout_g == 1,
                   "depthwise kernel on a non-depthwise layer");
      depthwise_func_batch(inputs, packed, p, intra_jobs, scratch, outputs);
      return;
    case ConvKernel::kPointwiseDirect:
      CBRAIN_CHECK(p.k == 1 && p.stride == 1 && p.pad == 0 && p.groups == 1,
                   "pointwise kernel on a non-pointwise layer");
      pointwise_func_batch(inputs, packed, p, intra_jobs, scratch, outputs);
      return;
    default:
      break;
  }

  // Band columns are (image, pixel) pairs: column b*npix + t holds image
  // b's patch for pixel pix0+t, so one packed weight chunk streams
  // through registers once per batch-wide column block.
  const i64 pix_block = cols_per_band(krow_s * batch, cols);
  std::int16_t* band = scratch.ensure_band(batch * pix_block * krow_s);
  const MrhsFn mrhs = mrhs_kernel(packed.kernel);
  const i64 row_chunks = ceil_div(dout_g, kRowChunk);

  for (i64 g = 0; g < p.groups; ++g) {
    for (i64 pix0 = 0; pix0 < cols; pix0 += pix_block) {
      const i64 npix = std::min(pix_block, cols - pix0);
      // Gather: batch × pslices disjoint slices of the patch matrix.
      const i64 pslices =
          intra_jobs > 1 ? std::min(intra_jobs, npix) : i64{1};
      parallel::parallel_for(
          batch * pslices,
          [&](i64 item) {
            const i64 b = item / pslices;
            const i64 s = item % pslices;
            const i64 t0 = s * npix / pslices;
            const i64 t1 = (s + 1) * npix / pslices;
            im2row_s16(*inputs[static_cast<std::size_t>(b)], g * din_g,
                       din_g, p, pix0 + t0, t1 - t0,
                       band + (b * npix + t0) * krow_s, krow_s);
          },
          intra_jobs);
      // GEMM: output-row chunks are the parallel grain; every output
      // element is one exact dot finalized by exactly one task.
      const i64 totcols = batch * npix;
      parallel::parallel_for(
          row_chunks,
          [&](i64 chunk) {
            const i64 od0 = chunk * kRowChunk;
            const i64 rows = std::min(kRowChunk, dout_g - od0);
            const std::int16_t* wchunk =
                packed_weights.data() + (g * dout_g + od0) * krow_s;
            Fixed16::acc_t accs[kRowChunk * kColChunk];
            for (i64 c0 = 0; c0 < totcols; c0 += kColChunk) {
              const i64 nc = std::min(kColChunk, totcols - c0);
              mrhs(band + c0 * krow_s, krow_s, nc, wchunk, krow_s, rows,
                   krow_s, accs, kColChunk);
              for (i64 l = 0; l < rows; ++l) {
                const i64 dout_abs = g * dout_g + od0 + l;
                const Fixed16::acc_t bias =
                    bias_acc[static_cast<std::size_t>(dout_abs)];
                // A column block may straddle an image boundary; walk the
                // (image, pixel) pair incrementally — a divide per output
                // element is measurable against the GEMM itself.
                i64 b = c0 / npix;
                i64 t = c0 - b * npix;
                Fixed16* out_row = outputs[static_cast<std::size_t>(b)]
                                       ->raw_data() +
                                   dout_abs * cols + pix0;
                for (i64 cc = 0; cc < nc; ++cc) {
                  out_row[t] =
                      Tr::finalize(accs[l * kColChunk + cc] + bias, p.relu);
                  if (++t == npix) {
                    t = 0;
                    ++b;
                    if (cc + 1 < nc)
                      out_row = outputs[static_cast<std::size_t>(b)]
                                    ->raw_data() +
                                dout_abs * cols + pix0;
                  }
                }
              }
            }
          },
          intra_jobs);
    }
  }
}

void eltwise_add_func_batch(const std::vector<const Tensor3<Fixed16>*>& a,
                            const std::vector<const Tensor3<Fixed16>*>& b,
                            const EltwiseAddParams& p, i64 intra_jobs,
                            const std::vector<Tensor3<Fixed16>*>& outputs) {
  using Tr = ArithTraits<Fixed16>;
  const i64 batch = static_cast<i64>(a.size());
  CBRAIN_CHECK(batch > 0 && b.size() == a.size() &&
                   outputs.size() == a.size(),
               "eltwise_add_func_batch needs matching operand/output slots");
  const MapDims d = a[0]->dims();
  for (std::size_t i = 0; i < a.size(); ++i) {
    CBRAIN_CHECK(a[i]->order() == DataOrder::kSpatialMajor &&
                     b[i]->order() == DataOrder::kSpatialMajor &&
                     a[i]->dims() == d && b[i]->dims() == d,
                 "eltwise_add_func_batch operands must share one "
                 "spatial-major shape");
    CBRAIN_CHECK(outputs[i]->order() == DataOrder::kSpatialMajor &&
                     outputs[i]->dims() == d,
                 "eltwise_add_func_batch output tensor not pre-shaped");
  }
  const i64 n = d.count();
  // Both operands promote to accumulator scale, sum once, and round at
  // one point — the identical integer sequence to eltwise_add_ref and
  // the simulator's adder-tree handler, so outputs are bit-identical.
  parallel::parallel_for(
      batch,
      [&](i64 img) {
        const Fixed16* pa = a[static_cast<std::size_t>(img)]->raw_data();
        const Fixed16* pb = b[static_cast<std::size_t>(img)]->raw_data();
        Fixed16* po = outputs[static_cast<std::size_t>(img)]->raw_data();
        for (i64 i = 0; i < n; ++i) {
          const Fixed16::acc_t sum =
              Tr::from_value(pa[i]) + Tr::from_value(pb[i]);
          po[i] = Tr::finalize(sum, p.relu);
        }
      },
      intra_jobs);
}

void fc_func_batch(const std::vector<const Tensor3<Fixed16>*>& inputs,
                   const PackedLayer& packed, const FCParams& p,
                   i64 intra_jobs, GemmScratch& scratch,
                   const std::vector<Tensor3<Fixed16>*>& outputs) {
  using Tr = ArithTraits<Fixed16>;
  const i64 batch = static_cast<i64>(inputs.size());
  CBRAIN_CHECK(batch > 0 && outputs.size() == inputs.size(),
               "fc_func_batch needs matching input/output slots");
  const i64 din = inputs[0]->size();
  const i64 din_s = gemm_row_stride(din);
  const std::vector<std::int16_t>& packed_weights = packed.weights;
  const std::vector<Fixed16::acc_t>& bias_acc = packed.bias_acc;
  CBRAIN_CHECK(static_cast<i64>(packed_weights.size()) == p.dout * din_s,
               "fc packed weight size mismatch (expect gemm_row_stride rows)");
  CBRAIN_CHECK(static_cast<i64>(bias_acc.size()) == p.dout,
               "bias_acc size mismatch");
  const MapDims od{p.dout, 1, 1};
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    CBRAIN_CHECK(inputs[b]->order() == DataOrder::kSpatialMajor &&
                     inputs[b]->size() == din,
                 "fc_func_batch expects canonical spatial-major flatten "
                 "order");
    CBRAIN_CHECK(outputs[b]->order() == DataOrder::kSpatialMajor &&
                     outputs[b]->dims() == od,
                 "fc_func_batch output tensor not pre-shaped");
  }

  // The B×din activation matrix as raw int16: the dout×din weight matrix
  // (DRAM-bound on the big FC layers) then streams once per column block
  // of images instead of once per image.
  std::int16_t* flat = scratch.ensure_flat(batch * din_s);
  for (i64 b = 0; b < batch; ++b) {
    std::memcpy(flat + b * din_s,
                inputs[static_cast<std::size_t>(b)]->raw_data(),
                static_cast<std::size_t>(din) * sizeof(std::int16_t));
    if (din_s > din)
      std::fill(flat + b * din_s + din, flat + (b + 1) * din_s,
                std::int16_t{0});
  }

  const MrhsFn mrhs = mrhs_kernel(packed.kernel);
  const i64 row_chunks = ceil_div(p.dout, kRowChunk);
  parallel::parallel_for(
      row_chunks,
      [&](i64 chunk) {
        const i64 o0 = chunk * kRowChunk;
        const i64 rows = std::min(kRowChunk, p.dout - o0);
        Fixed16::acc_t accs[kRowChunk * kColChunk];
        for (i64 c0 = 0; c0 < batch; c0 += kColChunk) {
          const i64 nc = std::min(kColChunk, batch - c0);
          mrhs(flat + c0 * din_s, din_s, nc,
               packed_weights.data() + o0 * din_s, din_s, rows, din_s, accs,
               kColChunk);
          for (i64 l = 0; l < rows; ++l) {
            const Fixed16::acc_t bias =
                bias_acc[static_cast<std::size_t>(o0 + l)];
            for (i64 cc = 0; cc < nc; ++cc)
              outputs[static_cast<std::size_t>(c0 + cc)]
                  ->raw_data()[o0 + l] =
                  Tr::finalize(accs[l * kColChunk + cc] + bias, p.relu);
          }
        }
      },
      intra_jobs);
}

}  // namespace cbrain::func
