// cbrain::simd — geometry of the direct (non-GEMM) convolution kernels.
//
// Kept apart from simd.hpp so the backend translation units, which must
// not include headers carrying inline functions (see backend_impl.hpp),
// can share it: plain data over <cstdint> only.
#pragma once

#include <cstdint>

namespace cbrain::simd {

// One depthwise plane: a single input map convolved with one k*k filter
// into a single output map. The caller clips the kernel columns once per
// layer: output column ox sees exactly the taps kx in
// [tap_lo[ox], tap_hi[ox]) inside the input row. Rows are clipped once
// per output row. No inner loop of the kernels carries a bounds branch.
struct DwGeometry {
  std::int64_t in_h = 0, in_w = 0;
  std::int64_t out_h = 0, out_w = 0;
  std::int64_t k = 1, stride = 1, pad = 0, dilation = 1;
  const std::int64_t* tap_lo = nullptr;  // out_w entries
  const std::int64_t* tap_hi = nullptr;  // out_w entries
};

}  // namespace cbrain::simd
