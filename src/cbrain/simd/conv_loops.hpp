// Internal to cbrain::simd — the loop skeletons and the requantization
// step every backend's direct-convolution kernels share. Everything here
// has internal linkage (anonymous namespace), so each backend TU compiles
// its own copy under its own ISA flags and no -mavx2 code can be picked
// up by a plainly-compiled TU (the rule backend_impl.hpp states).
#pragma once

#include <cstdint>
#include <cstring>

#include "cbrain/simd/conv_geometry.hpp"

namespace cbrain::simd::detail {
namespace {

// Fixed16::from_acc followed by the optional ReLU: rescale a Q16.16
// accumulator to Q7.8 with round-half-away-from-zero and saturation.
// Integer division truncates toward zero after the half offset, as
// from_acc does; dispatch.cpp pins kFracBits == 8.
inline std::int16_t requant_s16(std::int64_t acc, bool relu) {
  const std::int64_t adjusted = acc >= 0 ? acc + 128 : acc - 128;
  std::int64_t q = adjusted / 256;
  if (q > 32767) q = 32767;
  if (q < -32768) q = -32768;
  if (relu && q < 0) q = 0;
  return static_cast<std::int16_t>(q);
}

// First tap row of output row oy and its clipped range [ky_lo, ky_hi):
// tap row ky is inside the plane iff 0 <= base_y + ky*d < in_h.
struct DwRows {
  std::int64_t base_y, ky_lo, ky_hi;
};

inline DwRows dw_rows(const DwGeometry& g, std::int64_t oy) {
  DwRows r;
  r.base_y = oy * g.stride - g.pad;
  r.ky_lo = r.base_y >= 0 ? 0 : (-r.base_y + g.dilation - 1) / g.dilation;
  r.ky_hi = g.in_h - r.base_y <= 0
                ? 0
                : (g.in_h - r.base_y + g.dilation - 1) / g.dilation;
  if (r.ky_hi > g.k) r.ky_hi = g.k;
  return r;
}

// The portable depthwise plane: every output element at `Acc` precision
// over its clipped tap rows and columns. The scalar backend runs it for
// every plane (at int64, which makes it exact for any filter); the vector
// backends fall back to it (at int32, under the i32 bound) when a plane
// is too wide for dw_window.
template <typename Acc>
void dw_plane_clipped(const std::int16_t* in, const DwGeometry& g,
                      const std::int16_t* w, std::int64_t bias, bool relu,
                      std::int16_t* out) {
  for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
    const DwRows r = dw_rows(g, oy);
    for (std::int64_t ox = 0; ox < g.out_w; ++ox) {
      const std::int64_t x0 = ox * g.stride - g.pad;
      Acc acc = 0;
      for (std::int64_t ky = r.ky_lo; ky < r.ky_hi; ++ky) {
        const std::int16_t* row =
            in + (r.base_y + ky * g.dilation) * g.in_w + x0;
        const std::int16_t* wk = w + ky * g.k;
        for (std::int64_t kx = g.tap_lo[ox]; kx < g.tap_hi[ox]; ++kx)
          acc += static_cast<Acc>(wk[kx]) * row[kx * g.dilation];
      }
      out[oy * g.out_w + ox] =
          requant_s16(static_cast<std::int64_t>(acc) + bias, relu);
    }
  }
}

// int16 elements of the vector kernels' row window (a stack array).
constexpr std::int64_t kDwWindowElems = 8192;

// The vector depthwise skeleton: a sliding window of the plane's input
// rows, each copied once into a zero-padded row (pad zeros either side,
// zeros past the end), so every output column — edges included — reads
// its taps at padded index ox*stride + kx*d with no clipping at all. Per
// output row it hands `row(taps, wrows, n, orow)` the n in-plane tap
// rows (padded row pointers and their k-weight filter rows); the backend
// computes whole `lanes`-wide column blocks, reading at most one element
// past a block's last tap, and stores the out_w columns that exist.
// Returns false, touching nothing, when k_eff padded rows do not fit the
// window; the caller then runs dw_plane_clipped.
template <typename Row>
bool dw_window(const std::int16_t* in, const DwGeometry& g,
               const std::int16_t* w, std::int16_t* out, std::int64_t lanes,
               Row&& row) {
  // width > k_eff, so a window that fits has k_eff * k_eff < 8192 rows:
  // k <= k_eff <= 90.
  constexpr std::int64_t kMaxRows = 90;
  const std::int64_t k_eff = (g.k - 1) * g.dilation + 1;
  const std::int64_t blocks = (g.out_w + lanes - 1) / lanes;
  std::int64_t width = (blocks * lanes - 1) * g.stride +
                       (g.k - 1) * g.dilation + 2;
  if (width < g.pad + g.in_w) width = g.pad + g.in_w;
  width = (width + 15) & ~std::int64_t{15};
  if (k_eff * width > kDwWindowElems) return false;
  alignas(32) std::int16_t buf[kDwWindowElems];
  std::memset(buf, 0,
              static_cast<std::size_t>(k_eff * width) * sizeof(std::int16_t));
  std::int64_t held[kMaxRows];  // input row in each slot, -1 = none
  for (std::int64_t i = 0; i < k_eff; ++i) held[i] = -1;
  const std::int16_t* taps[kMaxRows];
  const std::int16_t* wrows[kMaxRows];
  for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
    const DwRows r = dw_rows(g, oy);
    std::int64_t n = 0;
    for (std::int64_t ky = r.ky_lo; ky < r.ky_hi; ++ky) {
      // The k_eff rows one output row spans map to distinct slots.
      const std::int64_t y = r.base_y + ky * g.dilation;
      std::int16_t* slot = buf + (y % k_eff) * width;
      if (held[y % k_eff] != y) {
        std::memcpy(slot + g.pad, in + y * g.in_w,
                    static_cast<std::size_t>(g.in_w) * sizeof(std::int16_t));
        held[y % k_eff] = y;
      }
      taps[n] = slot;
      wrows[n] = w + ky * g.k;
      ++n;
    }
    row(taps, wrows, n, out + oy * g.out_w);
  }
  return true;
}

}  // namespace
}  // namespace cbrain::simd::detail
