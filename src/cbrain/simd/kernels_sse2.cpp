// SSE2 backend. Compiled into the table only when the build targets x86
// with SSE2 available (__SSE2__); otherwise this TU exports nullptr and
// dispatch never offers the backend.
//
// The dot kernels deliberately avoid _mm_madd_epi16: its pairwise i32 sum
// wraps for the one input it cannot represent (both pair products equal
// (-32768)² = 2^30, summing to 2^31), which would break bit-exactness
// against the scalar reference on exactly the extreme values the tests
// fuzz. Instead each product is materialized exactly in 32 bits
// (mullo/mulhi), sign-extended to 64 and accumulated — exact for every
// input, in any lane order.
#include "cbrain/simd/backend_impl.hpp"

#if defined(__SSE2__)

#include <emmintrin.h>

#include <cstring>

#include "cbrain/simd/conv_loops.hpp"

namespace cbrain::simd::detail {
namespace {

using std::int16_t;
using std::int64_t;

// Sign-extends the four i32 lanes of `v` and adds them into acc0/acc1
// (two i64 lanes each).
inline void accumulate_i32x4(__m128i v, __m128i& acc0, __m128i& acc1) {
  const __m128i sign = _mm_srai_epi32(v, 31);
  acc0 = _mm_add_epi64(acc0, _mm_unpacklo_epi32(v, sign));
  acc1 = _mm_add_epi64(acc1, _mm_unpackhi_epi32(v, sign));
}

int64_t dot_s16(const int16_t* data, const int16_t* weights, int64_t n) {
  __m128i acc0 = _mm_setzero_si128();
  __m128i acc1 = _mm_setzero_si128();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const __m128i w =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(weights + i));
    const __m128i lo = _mm_mullo_epi16(d, w);
    const __m128i hi = _mm_mulhi_epi16(d, w);
    accumulate_i32x4(_mm_unpacklo_epi16(lo, hi), acc0, acc1);
    accumulate_i32x4(_mm_unpackhi_epi16(lo, hi), acc0, acc1);
  }
  alignas(16) int64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes),
                  _mm_add_epi64(acc0, acc1));
  int64_t acc = lanes[0] + lanes[1];
  for (; i < n; ++i)
    acc += static_cast<int64_t>(data[i]) * static_cast<int64_t>(weights[i]);
  return acc;
}

void dot_s16_multi(const int16_t* data, const int16_t* weights,
                   int64_t row_stride, int64_t rows, int64_t n,
                   int64_t* out) {
  for (int64_t l = 0; l < rows; ++l)
    out[l] = dot_s16(data, weights + l * row_stride, n);
}

void dot_s16_multi_acc(const int16_t* data, const int16_t* weights,
                       int64_t row_stride, int64_t rows, int64_t n,
                       int64_t* out) {
  for (int64_t l = 0; l < rows; ++l)
    out[l] += dot_s16(data, weights + l * row_stride, n);
}

// No-wrap fast path (see simd.hpp / the AVX2 twin): the caller rules out
// the one pmaddwd-wrapping input, so the pairwise i32 sums are exact and
// widen via xor-bias to unsigned + mask/shift instead of sign-extending
// unpacks; the accumulated 2^31-per-lane bias comes off once at the end.
int64_t dot_s16_nw(const int16_t* data, const int16_t* weights, int64_t n) {
  const __m128i sign = _mm_set1_epi32(INT32_MIN);
  const __m128i lo32 = _mm_set1_epi64x(0xFFFFFFFFll);
  __m128i acc_lo = _mm_setzero_si128();
  __m128i acc_hi = _mm_setzero_si128();
  int64_t i = 0;
  int64_t groups = 0;
  for (; i + 8 <= n; i += 8, ++groups) {
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const __m128i w =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(weights + i));
    const __m128i u = _mm_xor_si128(_mm_madd_epi16(d, w), sign);
    acc_lo = _mm_add_epi64(acc_lo, _mm_and_si128(u, lo32));
    acc_hi = _mm_add_epi64(acc_hi, _mm_srli_epi64(u, 32));
  }
  alignas(16) int64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes),
                  _mm_add_epi64(acc_lo, acc_hi));
  // 4 biased lanes per group, 2^31 bias each.
  int64_t acc = lanes[0] + lanes[1] - groups * (int64_t{4} << 31);
  for (; i < n; ++i)
    acc += static_cast<int64_t>(data[i]) * static_cast<int64_t>(weights[i]);
  return acc;
}

void dot_s16_multi_nw(const int16_t* data, const int16_t* weights,
                      int64_t row_stride, int64_t rows, int64_t n,
                      int64_t* out) {
  for (int64_t l = 0; l < rows; ++l)
    out[l] = dot_s16_nw(data, weights + l * row_stride, n);
}

// Multi-RHS tiles: element-by-element over the exact dot kernels. SSE2 is
// the compatibility fallback — the register-blocked tile lives in the
// AVX2 backend; here correctness (each element one exact dot) is the
// whole contract.
void dot_s16_mrhs(const int16_t* data, int64_t data_stride, int64_t cols,
                  const int16_t* weights, int64_t row_stride, int64_t rows,
                  int64_t n, int64_t* out, int64_t out_stride) {
  for (int64_t l = 0; l < rows; ++l)
    for (int64_t c = 0; c < cols; ++c)
      out[l * out_stride + c] =
          dot_s16(data + c * data_stride, weights + l * row_stride, n);
}

void dot_s16_mrhs_nw(const int16_t* data, int64_t data_stride, int64_t cols,
                     const int16_t* weights, int64_t row_stride, int64_t rows,
                     int64_t n, int64_t* out, int64_t out_stride) {
  for (int64_t l = 0; l < rows; ++l)
    for (int64_t c = 0; c < cols; ++c)
      out[l * out_stride + c] =
          dot_s16_nw(data + c * data_stride, weights + l * row_stride, n);
}

// --- direct convolution kernels (see the AVX2 twin) ----------------------
// Under the caller's i32 bound every pmaddwd pair and partial sum is
// exact in int32. SSE2 lacks pminsd/pmaxsd/pabsd/psignd, so the clamp and
// the sign handling of the requantization are spelled out.

inline __m128i select(__m128i mask, __m128i a, __m128i b) {
  return _mm_or_si128(_mm_and_si128(mask, a), _mm_andnot_si128(mask, b));
}

// requant_s16 on four int32 accumulators (|bias| <= 2^23; the +-2^30
// clamp keeps acc + bias in int32 without changing a result).
inline __m128i requant_i32x4(__m128i acc, __m128i bias) {
  const __m128i hi = _mm_set1_epi32(1 << 30);
  const __m128i lo = _mm_sub_epi32(_mm_setzero_si128(), hi);
  acc = select(_mm_cmpgt_epi32(acc, hi), hi, acc);
  acc = select(_mm_cmplt_epi32(acc, lo), lo, acc);
  const __m128i v = _mm_add_epi32(acc, bias);
  const __m128i sign = _mm_srai_epi32(v, 31);
  const __m128i mag = _mm_sub_epi32(_mm_xor_si128(v, sign), sign);
  const __m128i q =
      _mm_srli_epi32(_mm_add_epi32(mag, _mm_set1_epi32(128)), 8);
  return _mm_sub_epi32(_mm_xor_si128(q, sign), sign);
}

inline __m128i pack_i16x8(__m128i a, __m128i b, bool relu) {
  __m128i p = _mm_packs_epi32(a, b);
  if (relu) p = _mm_max_epi16(p, _mm_setzero_si128());
  return p;
}

inline __m128i tap_weight(int16_t w) {
  return _mm_set1_epi32(static_cast<int32_t>(static_cast<uint16_t>(w)));
}

// NV*4 output columns starting at ox over the window's n tap rows, all
// accumulators in registers (see the AVX2 twin). Stride 1 duplicates
// each input into both halves of a pair, (x, x) . (w, 0) = x * w;
// stride 2 loads 8 inputs and the (w, 0) multiplier drops the odd ones.
template <int S, int NV>
inline void dw_block(const int16_t* const* taps, const int16_t* const* wrows,
                     int64_t n, const DwGeometry& g, int64_t ox,
                     __m128i (&acc)[NV]) {
  for (int v = 0; v < NV; ++v) acc[v] = _mm_setzero_si128();
  for (int64_t r = 0; r < n; ++r) {
    const int16_t* row = taps[r] + ox * S;
    for (int64_t kx = 0; kx < g.k; ++kx) {
      const __m128i wv = tap_weight(wrows[r][kx]);
      const int16_t* src = row + kx * g.dilation;
      for (int v = 0; v < NV; ++v) {
        __m128i x;
        if (S == 1) {
          x = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + 4 * v));
          x = _mm_unpacklo_epi16(x, x);
        } else {
          x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 8 * v));
        }
        acc[v] = _mm_add_epi32(acc[v], _mm_madd_epi16(x, wv));
      }
    }
  }
}

template <int S>
void dw_row_sse2(const int16_t* const* taps, const int16_t* const* wrows,
                 int64_t n, const DwGeometry& g, __m128i vbias, bool relu,
                 int16_t* orow) {
  int64_t ox = 0;
  for (; ox + 8 <= g.out_w; ox += 8) {
    __m128i acc[2];
    dw_block<S, 2>(taps, wrows, n, g, ox, acc);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(orow + ox),
                     pack_i16x8(requant_i32x4(acc[0], vbias),
                                requant_i32x4(acc[1], vbias), relu));
  }
  for (; ox < g.out_w; ox += 4) {
    __m128i acc[1];
    dw_block<S, 1>(taps, wrows, n, g, ox, acc);
    const __m128i r = requant_i32x4(acc[0], vbias);
    alignas(16) int16_t tmp[8];
    _mm_store_si128(reinterpret_cast<__m128i*>(tmp), pack_i16x8(r, r, relu));
    const int64_t m = g.out_w - ox < 4 ? g.out_w - ox : 4;
    std::memcpy(orow + ox, tmp, static_cast<std::size_t>(m) * sizeof(int16_t));
  }
}

void dwconv_s16(const int16_t* in, const DwGeometry& g, const int16_t* w,
                int64_t bias, bool relu, int16_t* out) {
  const __m128i vbias = _mm_set1_epi32(static_cast<int32_t>(bias));
  auto row = [&](const int16_t* const* taps, const int16_t* const* wrows,
                 int64_t n, int16_t* orow) {
    if (g.stride == 1)
      dw_row_sse2<1>(taps, wrows, n, g, vbias, relu, orow);
    else
      dw_row_sse2<2>(taps, wrows, n, g, vbias, relu, orow);
  };
  if (g.stride > 2 || !dw_window(in, g, w, out, 4, row))
    dw_plane_clipped<int32_t>(in, g, w, bias, relu, out);
}

constexpr int kPwRows = 4;

template <int NV>
inline void pw_tile(const int16_t* xp, int64_t pair_stride, int64_t kpairs,
                    const int16_t* const* w, __m128i (&acc)[kPwRows][NV]) {
  for (int j = 0; j < kPwRows; ++j)
    for (int v = 0; v < NV; ++v) acc[j][v] = _mm_setzero_si128();
  for (int64_t p = 0; p < kpairs; ++p) {
    const int16_t* x = xp + p * pair_stride;
    __m128i d[NV];
    for (int v = 0; v < NV; ++v)
      d[v] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + 8 * v));
    for (int j = 0; j < kPwRows; ++j) {
      int32_t pair;
      std::memcpy(&pair, w[j] + 2 * p, sizeof(pair));
      const __m128i wv = _mm_set1_epi32(pair);
      for (int v = 0; v < NV; ++v)
        acc[j][v] = _mm_add_epi32(acc[j][v], _mm_madd_epi16(d[v], wv));
    }
  }
}

void pwconv_s16(const int16_t* xpairs, int64_t pair_stride, int64_t cols,
                int64_t kpairs, const int16_t* weights, int64_t row_stride,
                int64_t rows, const int64_t* bias, bool relu, int16_t* out,
                int64_t out_stride) {
  for (int64_t l0 = 0; l0 < rows; l0 += kPwRows) {
    const int64_t nr = rows - l0 < kPwRows ? rows - l0 : kPwRows;
    const int16_t* w[kPwRows];
    __m128i vbias[kPwRows];
    for (int j = 0; j < kPwRows; ++j) {
      const int64_t l = l0 + (j < nr ? j : nr - 1);
      w[j] = weights + l * row_stride;
      vbias[j] = _mm_set1_epi32(static_cast<int32_t>(bias[l]));
    }
    int64_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      __m128i acc[kPwRows][2];
      pw_tile<2>(xpairs + 2 * c, pair_stride, kpairs, w, acc);
      for (int64_t j = 0; j < nr; ++j)
        _mm_storeu_si128(
            reinterpret_cast<__m128i*>(out + (l0 + j) * out_stride + c),
            pack_i16x8(requant_i32x4(acc[j][0], vbias[j]),
                       requant_i32x4(acc[j][1], vbias[j]), relu));
    }
    for (; c < cols; c += 4) {
      __m128i acc[kPwRows][1];
      pw_tile<1>(xpairs + 2 * c, pair_stride, kpairs, w, acc);
      const int64_t m = cols - c < 4 ? cols - c : 4;
      for (int64_t j = 0; j < nr; ++j) {
        alignas(16) int16_t tmp[8];
        const __m128i r = requant_i32x4(acc[j][0], vbias[j]);
        _mm_store_si128(reinterpret_cast<__m128i*>(tmp),
                        pack_i16x8(r, r, relu));
        std::memcpy(out + (l0 + j) * out_stride + c, tmp,
                    static_cast<std::size_t>(m) * sizeof(int16_t));
      }
    }
  }
}

void add_sat_s16(const int16_t* a, const int16_t* b, int16_t* out,
                 int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_adds_epi16(va, vb));
  }
  for (; i < n; ++i) {
    const int32_t s = static_cast<int32_t>(a[i]) + static_cast<int32_t>(b[i]);
    out[i] = static_cast<int16_t>(s > 32767 ? 32767 : (s < -32768 ? -32768
                                                                  : s));
  }
}

void relu_s16(const int16_t* x, int16_t* out, int64_t n) {
  const __m128i zero = _mm_setzero_si128();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_max_epi16(v, zero));
  }
  for (; i < n; ++i) out[i] = x[i] < 0 ? int16_t{0} : x[i];
}

void max_s16(const int16_t* x, int16_t* inout, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i vx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    const __m128i vio =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(inout + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(inout + i),
                     _mm_max_epi16(vx, vio));
  }
  for (; i < n; ++i)
    if (x[i] > inout[i]) inout[i] = x[i];
}

void axpy_f32(float a, const float* x, float* y, int64_t n) {
  const __m128 va = _mm_set1_ps(a);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 vy = _mm_loadu_ps(y + i);
    const __m128 vx = _mm_loadu_ps(x + i);
    _mm_storeu_ps(y + i, _mm_add_ps(vy, _mm_mul_ps(va, vx)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

// The deep-window slot reuses the no-wrap tile: the deep contract
// implies every single pmaddwd pair sum fits int32 (a one-pair "window"
// is a subset of the checked window), so _nw is valid for all dw inputs.
// The 32-bit-deep accumulation itself is an AVX2-only optimization.
constexpr KernelTable kTable = {
    dot_s16,       dot_s16_multi,   dot_s16_multi_acc, dot_s16_multi_nw,
    dot_s16_mrhs,  dot_s16_mrhs_nw, dot_s16_mrhs_nw,
    dwconv_s16,    pwconv_s16,
    add_sat_s16,   relu_s16,        max_s16,           axpy_f32,
};

}  // namespace

const KernelTable* sse2_table() { return &kTable; }

}  // namespace cbrain::simd::detail

#else  // !__SSE2__

namespace cbrain::simd::detail {
const KernelTable* sse2_table() { return nullptr; }
}  // namespace cbrain::simd::detail

#endif
