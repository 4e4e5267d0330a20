#include "common/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define F3D_SIMD_X86 1
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#define F3D_SIMD_NEON 1
#endif

namespace fusion3d::simd
{

namespace
{

std::atomic<bool> g_force_scalar{false};

bool
envDisabled()
{
    static const bool disabled = [] {
        const char *e = std::getenv("FUSION3D_SIMD_DISABLED");
        return e != nullptr && *e != '\0';
    }();
    return disabled;
}

Caps
detectCaps()
{
    Caps c;
#if defined(F3D_SIMD_X86)
    c.avx2 = __builtin_cpu_supports("avx2");
    c.fma = __builtin_cpu_supports("fma");
    c.f16c = __builtin_cpu_supports("f16c");
    c.avx512f = __builtin_cpu_supports("avx512f");
#endif
#if defined(F3D_SIMD_NEON)
    c.neon = true;
#endif
    return c;
}

// ---------------------------------------------------------------------------
// Scalar variants. These are the reference loops the AVX2/NEON kernels
// must match bit-for-bat (lane = sample, accumulation order preserved);
// they are also what the existing Mlp/HashGridEncoding batch loops
// compiled to, so routing through them changes nothing.
// ---------------------------------------------------------------------------

/** Samples per GEMM tile: accumulators stay register/L1-resident while
 *  each weight row is reused across the whole tile. */
constexpr std::size_t kBatchBlock = 64;

void
mlpLayerScalar(const float *w, const float *b, const float *x, float *z,
               float *a, int fan_in, int fan_out, std::size_t n, bool relu)
{
    for (std::size_t n0 = 0; n0 < n; n0 += kBatchBlock) {
        const std::size_t nb = std::min(kBatchBlock, n - n0);
        for (int o = 0; o < fan_out; ++o) {
            const float *wrow = w + static_cast<std::size_t>(o) * fan_in;
            // Per sample this accumulates bias-first then fan-in
            // ascending — the exact order of the scalar Mlp::forward().
            float acc[kBatchBlock];
            for (std::size_t j = 0; j < nb; ++j)
                acc[j] = b[o];
            for (int i = 0; i < fan_in; ++i) {
                const float wv = wrow[i];
                const float *xrow = x + static_cast<std::size_t>(i) * n + n0;
                for (std::size_t j = 0; j < nb; ++j)
                    acc[j] += wv * xrow[j];
            }
            float *zrow = z + static_cast<std::size_t>(o) * n + n0;
            float *arow = a + static_cast<std::size_t>(o) * n + n0;
            for (std::size_t j = 0; j < nb; ++j) {
                zrow[j] = acc[j];
                arow[j] = relu ? std::max(acc[j], 0.0f) : acc[j];
            }
        }
    }
}

void
mlpLayerBackwardScalar(const float *w, const float *x, const float *delta,
                       float *next_delta, float *gw, float *gb, int fan_in,
                       int fan_out, std::size_t n, float * /*xt*/,
                       float * /*dt*/)
{
    std::fill_n(next_delta, static_cast<std::size_t>(fan_in) * n, 0.0f);
    for (int o = 0; o < fan_out; ++o) {
        const float *drow = delta + static_cast<std::size_t>(o) * n;
        float bias_acc = 0.0f;
        for (std::size_t j = 0; j < n; ++j)
            bias_acc += drow[j];
        gb[o] += bias_acc;

        const float *wrow = w + static_cast<std::size_t>(o) * fan_in;
        float *gwrow = gw + static_cast<std::size_t>(o) * fan_in;
        for (int i = 0; i < fan_in; ++i) {
            const float *xrow = x + static_cast<std::size_t>(i) * n;
            float *ndrow = next_delta + static_cast<std::size_t>(i) * n;
            const float wv = wrow[i];
            float gacc = 0.0f;
            for (std::size_t j = 0; j < n; ++j) {
                gacc += drow[j] * xrow[j];
                ndrow[j] += drow[j] * wv;
            }
            gwrow[i] += gacc;
        }
    }
}

void
gatherInterp2Scalar(const float *tab, const std::uint32_t *idx,
                    const float *wts, std::size_t nb, float *out0, float *out1)
{
    for (std::size_t j = 0; j < nb; ++j) {
        float a0 = 0.0f, a1 = 0.0f;
        for (int c = 0; c < 8; ++c) {
            const std::size_t at = c * kGatherBlock + j;
            const float *q =
                tab + static_cast<std::size_t>(idx[at]) * 2;
            const float wv = wts[at];
            a0 += wv * q[0];
            a1 += wv * q[1];
        }
        out0[j] = a0;
        out1[j] = a1;
    }
}

void
gatherInterp2F16Scalar(const std::uint16_t *tab, const std::uint32_t *idx,
                       const float *wts, std::size_t nb, float *out0,
                       float *out1)
{
    for (std::size_t j = 0; j < nb; ++j) {
        float a0 = 0.0f, a1 = 0.0f;
        for (int c = 0; c < 8; ++c) {
            const std::size_t at = c * kGatherBlock + j;
            const std::uint16_t *q =
                tab + static_cast<std::size_t>(idx[at]) * 2;
            const float wv = wts[at];
            a0 += wv * halfBitsToFloat(q[0]);
            a1 += wv * halfBitsToFloat(q[1]);
        }
        out0[j] = a0;
        out1[j] = a1;
    }
}

void
gatherInterp2I8Scalar(const std::int8_t *tab, float scale,
                      const std::uint32_t *idx, const float *wts,
                      std::size_t nb, float *out0, float *out1)
{
    for (std::size_t j = 0; j < nb; ++j) {
        float a0 = 0.0f, a1 = 0.0f;
        for (int c = 0; c < 8; ++c) {
            const std::size_t at = c * kGatherBlock + j;
            const std::int8_t *q =
                tab + static_cast<std::size_t>(idx[at]) * 2;
            const float wv = wts[at];
            a0 += wv * (static_cast<float>(q[0]) * scale);
            a1 += wv * (static_cast<float>(q[1]) * scale);
        }
        out0[j] = a0;
        out1[j] = a1;
    }
}

constexpr Kernels kScalarKernels = {
    "scalar",
    mlpLayerScalar,
    mlpLayerBackwardScalar,
    gatherInterp2Scalar,
    gatherInterp2F16Scalar,
    gatherInterp2I8Scalar,
};

// ---------------------------------------------------------------------------
// AVX2 variants (x86-64). Compiled per-function with target attributes
// so no file needs -mavx2; the dispatcher only selects them when CPUID
// reports avx2+fma+f16c. Multiplies and adds stay SEPARATE intrinsics:
// with -ffp-contract=off the scalar baseline never fuses, so a
// single-rounding FMA here would break bit-equality.
// ---------------------------------------------------------------------------
#if defined(F3D_SIMD_X86)

__attribute__((target("avx2,fma,f16c"))) void
mlpLayerAvx2(const float *w, const float *b, const float *x, float *z,
             float *a, int fan_in, int fan_out, std::size_t n, bool relu)
{
    const __m256 zero = _mm256_setzero_ps();
    for (int o = 0; o < fan_out; ++o) {
        const float *wrow = w + static_cast<std::size_t>(o) * fan_in;
        float *zrow = z + static_cast<std::size_t>(o) * n;
        float *arow = a + static_cast<std::size_t>(o) * n;
        const __m256 bias = _mm256_set1_ps(b[o]);
        std::size_t j = 0;
        for (; j + 16 <= n; j += 16) {
            __m256 acc0 = bias;
            __m256 acc1 = bias;
            for (int i = 0; i < fan_in; ++i) {
                const __m256 wv = _mm256_set1_ps(wrow[i]);
                const float *xrow = x + static_cast<std::size_t>(i) * n + j;
                acc0 = _mm256_add_ps(acc0,
                                     _mm256_mul_ps(wv, _mm256_loadu_ps(xrow)));
                acc1 = _mm256_add_ps(
                    acc1, _mm256_mul_ps(wv, _mm256_loadu_ps(xrow + 8)));
            }
            _mm256_storeu_ps(zrow + j, acc0);
            _mm256_storeu_ps(zrow + j + 8, acc1);
            if (relu) {
                acc0 = _mm256_max_ps(zero, acc0);
                acc1 = _mm256_max_ps(zero, acc1);
            }
            _mm256_storeu_ps(arow + j, acc0);
            _mm256_storeu_ps(arow + j + 8, acc1);
        }
        for (; j + 8 <= n; j += 8) {
            __m256 acc = bias;
            for (int i = 0; i < fan_in; ++i) {
                const __m256 wv = _mm256_set1_ps(wrow[i]);
                const float *xrow = x + static_cast<std::size_t>(i) * n + j;
                acc = _mm256_add_ps(acc,
                                    _mm256_mul_ps(wv, _mm256_loadu_ps(xrow)));
            }
            _mm256_storeu_ps(zrow + j, acc);
            if (relu)
                acc = _mm256_max_ps(zero, acc);
            _mm256_storeu_ps(arow + j, acc);
        }
        for (; j < n; ++j) {
            float acc = b[o];
            for (int i = 0; i < fan_in; ++i)
                acc += wrow[i] * x[static_cast<std::size_t>(i) * n + j];
            zrow[j] = acc;
            arow[j] = relu ? std::max(acc, 0.0f) : acc;
        }
    }
}

__attribute__((target("avx2,fma,f16c"))) void
gatherInterp2Avx2(const float *tab, const std::uint32_t *idx, const float *wts,
                  std::size_t nb, float *out0, float *out1)
{
    std::size_t j = 0;
    for (; j + 8 <= nb; j += 8) {
        __m256 acc0 = _mm256_setzero_ps();
        __m256 acc1 = _mm256_setzero_ps();
        for (int c = 0; c < 8; ++c) {
            const std::size_t at = c * kGatherBlock + j;
            const __m256i vi = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(idx + at));
            const __m256i vi2 = _mm256_slli_epi32(vi, 1);
            const __m256 q0 = _mm256_i32gather_ps(tab, vi2, 4);
            const __m256 q1 = _mm256_i32gather_ps(tab + 1, vi2, 4);
            const __m256 wv = _mm256_loadu_ps(wts + at);
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(wv, q0));
            acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(wv, q1));
        }
        _mm256_storeu_ps(out0 + j, acc0);
        _mm256_storeu_ps(out1 + j, acc1);
    }
    if (j < nb)
        gatherInterp2Scalar(tab, idx + j, wts + j, nb - j, out0 + j, out1 + j);
}

__attribute__((target("avx2,fma,f16c"))) void
gatherInterp2F16Avx2(const std::uint16_t *tab, const std::uint32_t *idx,
                     const float *wts, std::size_t nb, float *out0,
                     float *out1)
{
    // A two-feature binary16 entry is one 32-bit word: one gather
    // fetches both features, F16C widens them exactly.
    const int *tab32 = reinterpret_cast<const int *>(tab);
    const __m256i lomask = _mm256_set1_epi32(0xffff);
    std::size_t j = 0;
    for (; j + 8 <= nb; j += 8) {
        __m256 acc0 = _mm256_setzero_ps();
        __m256 acc1 = _mm256_setzero_ps();
        for (int c = 0; c < 8; ++c) {
            const std::size_t at = c * kGatherBlock + j;
            const __m256i vi = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(idx + at));
            const __m256i words = _mm256_i32gather_epi32(tab32, vi, 4);
            const __m256i lo = _mm256_and_si256(words, lomask);
            const __m256i hi = _mm256_srli_epi32(words, 16);
            const __m128i lo16 = _mm_packus_epi32(
                _mm256_castsi256_si128(lo), _mm256_extracti128_si256(lo, 1));
            const __m128i hi16 = _mm_packus_epi32(
                _mm256_castsi256_si128(hi), _mm256_extracti128_si256(hi, 1));
            const __m256 q0 = _mm256_cvtph_ps(lo16);
            const __m256 q1 = _mm256_cvtph_ps(hi16);
            const __m256 wv = _mm256_loadu_ps(wts + at);
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(wv, q0));
            acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(wv, q1));
        }
        _mm256_storeu_ps(out0 + j, acc0);
        _mm256_storeu_ps(out1 + j, acc1);
    }
    if (j < nb)
        gatherInterp2F16Scalar(tab, idx + j, wts + j, nb - j, out0 + j,
                               out1 + j);
}

__attribute__((target("avx2,fma,f16c"))) void
gatherInterp2I8Avx2(const std::int8_t *tab, float scale,
                    const std::uint32_t *idx, const float *wts, std::size_t nb,
                    float *out0, float *out1)
{
    // 32-bit gathers at byte stride 2 over-read 2 bytes past the entry;
    // callers pad the packed table (see HashGridEncoding::buildQuantized).
    const int *tab32 = reinterpret_cast<const int *>(tab);
    const __m256 vscale = _mm256_set1_ps(scale);
    std::size_t j = 0;
    for (; j + 8 <= nb; j += 8) {
        __m256 acc0 = _mm256_setzero_ps();
        __m256 acc1 = _mm256_setzero_ps();
        for (int c = 0; c < 8; ++c) {
            const std::size_t at = c * kGatherBlock + j;
            const __m256i vi = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(idx + at));
            const __m256i words = _mm256_i32gather_epi32(tab32, vi, 2);
            const __m256i b0 =
                _mm256_srai_epi32(_mm256_slli_epi32(words, 24), 24);
            const __m256i b1 =
                _mm256_srai_epi32(_mm256_slli_epi32(words, 16), 24);
            const __m256 q0 =
                _mm256_mul_ps(_mm256_cvtepi32_ps(b0), vscale);
            const __m256 q1 =
                _mm256_mul_ps(_mm256_cvtepi32_ps(b1), vscale);
            const __m256 wv = _mm256_loadu_ps(wts + at);
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(wv, q0));
            acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(wv, q1));
        }
        _mm256_storeu_ps(out0 + j, acc0);
        _mm256_storeu_ps(out1 + j, acc1);
    }
    if (j < nb)
        gatherInterp2I8Scalar(tab, scale, idx + j, wts + j, nb - j, out0 + j,
                              out1 + j);
}

/** In-register transpose of an 8x8 float block: row k of the result
 *  is column k of the input. */
__attribute__((target("avx2,fma,f16c"))) inline void
transpose8x8Avx2(__m256 r[8])
{
    const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
    const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
    const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
    const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
    const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
    const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
    const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
    const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
    const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
    r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
    r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
    r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
    r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
    r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
    r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
    r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

/**
 * Feature-major [rows][n] -> sample-major [n][lanePad(rows)]:
 * dst[j*ld + r] = src[r*n + j], with the pad columns r >= rows zeroed
 * so padded lanes accumulate exact zeros.
 */
__attribute__((target("avx2,fma,f16c"))) void
transposeSampleMajorAvx2(const float *src, int rows, std::size_t n, float *dst)
{
    const std::size_t ld = lanePad(rows);
    const std::size_t n8 = n & ~std::size_t(7);
    for (std::size_t r0 = 0; r0 < ld; r0 += 8) {
        for (std::size_t j0 = 0; j0 < n8; j0 += 8) {
            __m256 v[8];
            for (std::size_t k = 0; k < 8; ++k)
                v[k] = r0 + k < static_cast<std::size_t>(rows)
                           ? _mm256_loadu_ps(src + (r0 + k) * n + j0)
                           : _mm256_setzero_ps();
            transpose8x8Avx2(v);
            for (std::size_t k = 0; k < 8; ++k)
                _mm256_storeu_ps(dst + (j0 + k) * ld + r0, v[k]);
        }
    }
    for (std::size_t j = n8; j < n; ++j)
        for (std::size_t r = 0; r < ld; ++r)
            dst[j * ld + r] =
                r < static_cast<std::size_t>(rows) ? src[r * n + j] : 0.0f;
}

/** Lane mask selecting the first @p live (1..7) of 8 floats. */
__attribute__((target("avx2,fma,f16c"))) inline __m256i
firstLanesMask(int live)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(live),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/** dst[0..live) += v, for live >= 1 (masked when live < 8). */
__attribute__((target("avx2,fma,f16c"))) inline void
addInto(float *dst, __m256 v, int live)
{
    if (live >= 8) {
        _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), v));
        return;
    }
    const __m256i m = firstLanesMask(live);
    _mm256_maskstore_ps(dst, m, _mm256_add_ps(_mm256_maskload_ps(dst, m), v));
}

/**
 * Weight-gradient tile: OB output rows x IV 8-lane input vectors,
 * lanes over inputs. Each accumulator is one (o, i) element's sum
 * over samples j ascending from +0.0f, added once into gw.
 */
template <int OB, int IV>
__attribute__((target("avx2,fma,f16c"))) inline void
weightGradTileAvx2(const float *xt, std::size_t kx, const float *dt,
                   std::size_t kd, std::size_t n, int o0, int i0, float *gw,
                   int fan_in)
{
    __m256 acc[OB][IV];
    for (int o = 0; o < OB; ++o)
        for (int v = 0; v < IV; ++v)
            acc[o][v] = _mm256_setzero_ps();
    const float *xr = xt + i0;
    const float *dr = dt + o0;
    for (std::size_t j = 0; j < n; ++j, xr += kx, dr += kd) {
        __m256 xv[IV];
        for (int v = 0; v < IV; ++v)
            xv[v] = _mm256_loadu_ps(xr + 8 * v);
        for (int o = 0; o < OB; ++o) {
            const __m256 d = _mm256_broadcast_ss(dr + o);
            for (int v = 0; v < IV; ++v)
                acc[o][v] = _mm256_add_ps(acc[o][v], _mm256_mul_ps(d, xv[v]));
        }
    }
    for (int o = 0; o < OB; ++o) {
        float *grow = gw + static_cast<std::size_t>(o0 + o) * fan_in;
        for (int v = 0; v < IV; ++v) {
            const int i = i0 + 8 * v;
            if (i < fan_in)
                addInto(grow + i, acc[o][v], fan_in - i);
        }
    }
}

/** Every output row against IV input vectors starting at @p i0: OB-row
 *  tiles with 8 accumulators, then single rows for the remainder. */
template <int IV>
__attribute__((target("avx2,fma,f16c"))) void
weightGradColumnAvx2(const float *xt, std::size_t kx, const float *dt,
                     std::size_t kd, std::size_t n, int i0, float *gw,
                     int fan_in, int fan_out)
{
    constexpr int OB = IV >= 4 ? 2 : 8 / IV;
    int o0 = 0;
    for (; o0 + OB <= fan_out; o0 += OB)
        weightGradTileAvx2<OB, IV>(xt, kx, dt, kd, n, o0, i0, gw, fan_in);
    for (; o0 < fan_out; ++o0)
        weightGradTileAvx2<1, IV>(xt, kx, dt, kd, n, o0, i0, gw, fan_in);
}

/**
 * next_delta tile: IB input rows x JV 8-sample vectors, lanes over
 * samples; each element sums o ascending from +0.0f.
 */
template <int IB, int JV>
__attribute__((target("avx2,fma,f16c"))) inline void
nextDeltaTileAvx2(const float *w, const float *delta, float *next_delta,
                  int fan_in, int fan_out, std::size_t n, int i0,
                  std::size_t j0)
{
    __m256 acc[IB][JV];
    for (int i = 0; i < IB; ++i)
        for (int v = 0; v < JV; ++v)
            acc[i][v] = _mm256_setzero_ps();
    for (int o = 0; o < fan_out; ++o) {
        const float *drow = delta + static_cast<std::size_t>(o) * n + j0;
        const float *wrow = w + static_cast<std::size_t>(o) * fan_in + i0;
        __m256 dv[JV];
        for (int v = 0; v < JV; ++v)
            dv[v] = _mm256_loadu_ps(drow + 8 * v);
        for (int i = 0; i < IB; ++i) {
            const __m256 wv = _mm256_broadcast_ss(wrow + i);
            for (int v = 0; v < JV; ++v)
                acc[i][v] = _mm256_add_ps(acc[i][v], _mm256_mul_ps(dv[v], wv));
        }
    }
    for (int i = 0; i < IB; ++i)
        for (int v = 0; v < JV; ++v)
            _mm256_storeu_ps(
                next_delta + static_cast<std::size_t>(i0 + i) * n + j0 + 8 * v,
                acc[i][v]);
}

/** Every input row against JV sample vectors starting at @p j0. */
template <int JV>
__attribute__((target("avx2,fma,f16c"))) void
nextDeltaBlockAvx2(const float *w, const float *delta, float *next_delta,
                   int fan_in, int fan_out, std::size_t n, std::size_t j0)
{
    int i0 = 0;
    for (; i0 + 4 <= fan_in; i0 += 4)
        nextDeltaTileAvx2<4, JV>(w, delta, next_delta, fan_in, fan_out, n, i0,
                                 j0);
    for (; i0 < fan_in; ++i0)
        nextDeltaTileAvx2<1, JV>(w, delta, next_delta, fan_in, fan_out, n, i0,
                                 j0);
}

__attribute__((target("avx2,fma,f16c"))) void
mlpLayerBackwardAvx2(const float *w, const float *x, const float *delta,
                     float *next_delta, float *gw, float *gb, int fan_in,
                     int fan_out, std::size_t n, float *xt, float *dt)
{
    const std::size_t kx = lanePad(fan_in);
    const std::size_t kd = lanePad(fan_out);
    transposeSampleMajorAvx2(x, fan_in, n, xt);
    transposeSampleMajorAvx2(delta, fan_out, n, dt);

    // Bias: lanes over outputs, samples ascending.
    for (std::size_t o0 = 0; o0 < kd; o0 += 8) {
        __m256 acc = _mm256_setzero_ps();
        for (std::size_t j = 0; j < n; ++j)
            acc = _mm256_add_ps(acc, _mm256_loadu_ps(dt + j * kd + o0));
        addInto(gb + o0, acc, fan_out - static_cast<int>(o0));
    }

    // Weights: lanes over inputs, up to four vectors per tile.
    for (std::size_t i0 = 0; i0 < kx; i0 += 32) {
        const int i = static_cast<int>(i0);
        switch (std::min<std::size_t>(4, (kx - i0) / 8)) {
        case 4:
            weightGradColumnAvx2<4>(xt, kx, dt, kd, n, i, gw, fan_in, fan_out);
            break;
        case 3:
            weightGradColumnAvx2<3>(xt, kx, dt, kd, n, i, gw, fan_in, fan_out);
            break;
        case 2:
            weightGradColumnAvx2<2>(xt, kx, dt, kd, n, i, gw, fan_in, fan_out);
            break;
        default:
            weightGradColumnAvx2<1>(xt, kx, dt, kd, n, i, gw, fan_in, fan_out);
            break;
        }
    }

    // next_delta: lanes over samples, 16 then 8 at a time, then a
    // scalar tail in the same o-ascending order.
    std::size_t j0 = 0;
    for (; j0 + 16 <= n; j0 += 16)
        nextDeltaBlockAvx2<2>(w, delta, next_delta, fan_in, fan_out, n, j0);
    for (; j0 + 8 <= n; j0 += 8)
        nextDeltaBlockAvx2<1>(w, delta, next_delta, fan_in, fan_out, n, j0);
    for (int i = 0; i < fan_in; ++i) {
        for (std::size_t j = j0; j < n; ++j) {
            float acc = 0.0f;
            for (int o = 0; o < fan_out; ++o)
                acc += delta[static_cast<std::size_t>(o) * n + j] *
                       w[static_cast<std::size_t>(o) * fan_in + i];
            next_delta[static_cast<std::size_t>(i) * n + j] = acc;
        }
    }
}

constexpr Kernels kAvx2Kernels = {
    "avx2",
    mlpLayerAvx2,
    mlpLayerBackwardAvx2,
    gatherInterp2Avx2,
    gatherInterp2F16Avx2,
    gatherInterp2I8Avx2,
};

#endif // F3D_SIMD_X86

// ---------------------------------------------------------------------------
// NEON variants (aarch64). The GEMM microkernel vectorizes 4-wide with
// separate mul/add (no vfma — same contraction contract as AVX2); the
// gather kernels stay scalar since NEON has no gather instruction and
// the index loads dominate either way. The layer backward aliases the
// scalar loop.
// ---------------------------------------------------------------------------
#if defined(F3D_SIMD_NEON)

void
mlpLayerNeon(const float *w, const float *b, const float *x, float *z,
             float *a, int fan_in, int fan_out, std::size_t n, bool relu)
{
    const float32x4_t zero = vdupq_n_f32(0.0f);
    for (int o = 0; o < fan_out; ++o) {
        const float *wrow = w + static_cast<std::size_t>(o) * fan_in;
        float *zrow = z + static_cast<std::size_t>(o) * n;
        float *arow = a + static_cast<std::size_t>(o) * n;
        const float32x4_t bias = vdupq_n_f32(b[o]);
        std::size_t j = 0;
        for (; j + 8 <= n; j += 8) {
            float32x4_t acc0 = bias;
            float32x4_t acc1 = bias;
            for (int i = 0; i < fan_in; ++i) {
                const float32x4_t wv = vdupq_n_f32(wrow[i]);
                const float *xrow = x + static_cast<std::size_t>(i) * n + j;
                acc0 = vaddq_f32(acc0, vmulq_f32(wv, vld1q_f32(xrow)));
                acc1 = vaddq_f32(acc1, vmulq_f32(wv, vld1q_f32(xrow + 4)));
            }
            vst1q_f32(zrow + j, acc0);
            vst1q_f32(zrow + j + 4, acc1);
            if (relu) {
                acc0 = vmaxq_f32(zero, acc0);
                acc1 = vmaxq_f32(zero, acc1);
            }
            vst1q_f32(arow + j, acc0);
            vst1q_f32(arow + j + 4, acc1);
        }
        for (; j < n; ++j) {
            float acc = b[o];
            for (int i = 0; i < fan_in; ++i)
                acc += wrow[i] * x[static_cast<std::size_t>(i) * n + j];
            zrow[j] = acc;
            arow[j] = relu ? std::max(acc, 0.0f) : acc;
        }
    }
}

constexpr Kernels kNeonKernels = {
    "neon",
    mlpLayerNeon,
    mlpLayerBackwardScalar,
    gatherInterp2Scalar,
    gatherInterp2F16Scalar,
    gatherInterp2I8Scalar,
};

#endif // F3D_SIMD_NEON

Dispatch
hardwareDispatch()
{
    static const Dispatch d = [] {
        const Caps &c = caps();
#if defined(F3D_SIMD_X86)
        if (c.avx2 && c.fma && c.f16c)
            return Dispatch::avx2;
#endif
#if defined(F3D_SIMD_NEON)
        if (c.neon)
            return Dispatch::neon;
#endif
        (void)c;
        return Dispatch::scalar;
    }();
    return d;
}

void
registerCpuFeatureMetrics()
{
    static const bool once = [] {
        obs::MetricsRegistry::global().registerCollector(
            "process.cpu_features", [](obs::MetricSink &sink) {
                const Caps &c = caps();
                sink.labeledGauge(
                    "process.cpu_features",
                    std::string("avx2=\"") + (c.avx2 ? "1" : "0") +
                        "\",fma=\"" + (c.fma ? "1" : "0") + "\",f16c=\"" +
                        (c.f16c ? "1" : "0") + "\",avx512f=\"" +
                        (c.avx512f ? "1" : "0") + "\",neon=\"" +
                        (c.neon ? "1" : "0") + "\",dispatch=\"" +
                        dispatchName() + "\"",
                    1.0);
            });
        return true;
    }();
    (void)once;
}

} // namespace

const Caps &
caps()
{
    static const Caps c = detectCaps();
    return c;
}

const char *
dispatchName(Dispatch d)
{
    switch (d) {
    case Dispatch::scalar:
        return "scalar";
    case Dispatch::avx2:
        return "avx2";
    case Dispatch::neon:
        return "neon";
    }
    return "scalar";
}

Dispatch
activeDispatch()
{
    registerCpuFeatureMetrics();
    if (envDisabled() || g_force_scalar.load(std::memory_order_relaxed))
        return Dispatch::scalar;
    return hardwareDispatch();
}

const char *
dispatchName()
{
    return dispatchName(activeDispatch());
}

void
forceScalar(bool on)
{
    g_force_scalar.store(on, std::memory_order_relaxed);
}

bool
scalarForced()
{
    return envDisabled() || g_force_scalar.load(std::memory_order_relaxed);
}

const Kernels &
kernels()
{
    switch (activeDispatch()) {
#if defined(F3D_SIMD_X86)
    case Dispatch::avx2:
        return kAvx2Kernels;
#endif
#if defined(F3D_SIMD_NEON)
    case Dispatch::neon:
        return kNeonKernels;
#endif
    default:
        return kScalarKernels;
    }
}

} // namespace fusion3d::simd
