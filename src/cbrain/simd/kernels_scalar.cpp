// Portable scalar backend — the behavioural reference for every vector
// backend and the only one compiled on non-x86 targets. Plain loops the
// optimizer can still auto-vectorize where legal; correctness never
// depends on that.
#include "cbrain/simd/backend_impl.hpp"
#include "cbrain/simd/conv_loops.hpp"

namespace cbrain::simd::detail {
namespace {

using std::int16_t;
using std::int64_t;

int64_t s_dot_s16(const int16_t* data, const int16_t* weights, int64_t n) {
  int64_t acc = 0;
  for (int64_t i = 0; i < n; ++i)
    acc += static_cast<int64_t>(data[i]) * static_cast<int64_t>(weights[i]);
  return acc;
}

void s_dot_s16_multi(const int16_t* data, const int16_t* weights,
                     int64_t row_stride, int64_t rows, int64_t n,
                     int64_t* out) {
  for (int64_t l = 0; l < rows; ++l)
    out[l] = s_dot_s16(data, weights + l * row_stride, n);
}

void s_dot_s16_multi_acc(const int16_t* data, const int16_t* weights,
                         int64_t row_stride, int64_t rows, int64_t n,
                         int64_t* out) {
  for (int64_t l = 0; l < rows; ++l)
    out[l] += s_dot_s16(data, weights + l * row_stride, n);
}

void s_dot_s16_mrhs(const int16_t* data, int64_t data_stride, int64_t cols,
                    const int16_t* weights, int64_t row_stride, int64_t rows,
                    int64_t n, int64_t* out, int64_t out_stride) {
  for (int64_t l = 0; l < rows; ++l)
    for (int64_t c = 0; c < cols; ++c)
      out[l * out_stride + c] =
          s_dot_s16(data + c * data_stride, weights + l * row_stride, n);
}

// Depthwise plane on the portable clipped path at int64: exact for every
// input, so the scalar entry doubles as the wide (no weight bound)
// depthwise kernel.
void s_dwconv_s16(const int16_t* in, const DwGeometry& g, const int16_t* w,
                  int64_t bias, bool relu, int16_t* out) {
  dw_plane_clipped<int64_t>(in, g, w, bias, relu, out);
}

// Pointwise rows over channel-pair-interleaved columns, at int64 (exact
// for every input). Columns go in blocks so the pair rows stream.
void s_pwconv_s16(const int16_t* xpairs, int64_t pair_stride, int64_t cols,
                  int64_t kpairs, const int16_t* weights, int64_t row_stride,
                  int64_t rows, const int64_t* bias, bool relu, int16_t* out,
                  int64_t out_stride) {
  constexpr int64_t kBlock = 64;
  int64_t acc[kBlock];
  for (int64_t l = 0; l < rows; ++l) {
    const int16_t* w = weights + l * row_stride;
    for (int64_t c0 = 0; c0 < cols; c0 += kBlock) {
      const int64_t m = cols - c0 < kBlock ? cols - c0 : kBlock;
      for (int64_t i = 0; i < m; ++i) acc[i] = 0;
      for (int64_t p = 0; p < kpairs; ++p) {
        const int16_t* x = xpairs + p * pair_stride + 2 * c0;
        const int64_t w0 = w[2 * p], w1 = w[2 * p + 1];
        for (int64_t i = 0; i < m; ++i)
          acc[i] += w0 * x[2 * i] + w1 * x[2 * i + 1];
      }
      for (int64_t i = 0; i < m; ++i)
        out[l * out_stride + c0 + i] = requant_s16(acc[i] + bias[l], relu);
    }
  }
}

void s_add_sat_s16(const int16_t* a, const int16_t* b, int16_t* out,
                   int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const int32_t s = static_cast<int32_t>(a[i]) + static_cast<int32_t>(b[i]);
    out[i] = static_cast<int16_t>(s > 32767 ? 32767 : (s < -32768 ? -32768
                                                                  : s));
  }
}

void s_relu_s16(const int16_t* x, int16_t* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] < 0 ? int16_t{0} : x[i];
}

void s_max_s16(const int16_t* x, int16_t* inout, int64_t n) {
  for (int64_t i = 0; i < n; ++i)
    if (x[i] > inout[i]) inout[i] = x[i];
}

void s_axpy_f32(float a, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += a * x[i];
}

constexpr KernelTable kTable = {
    s_dot_s16,     s_dot_s16_multi, s_dot_s16_multi_acc,
    // The no-wrap contract is a strict subset of full-range inputs, so
    // the scalar reference serves both entry points unchanged — and both
    // multi-RHS slots likewise.
    s_dot_s16_multi,
    s_dot_s16_mrhs, s_dot_s16_mrhs, s_dot_s16_mrhs,
    s_dwconv_s16,  s_pwconv_s16,
    s_add_sat_s16, s_relu_s16,      s_max_s16,           s_axpy_f32,
};

}  // namespace

const KernelTable* scalar_table() { return &kTable; }

}  // namespace cbrain::simd::detail
