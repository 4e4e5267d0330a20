/**
 * @file
 * Runtime-dispatched SIMD kernel table for the batched inference and
 * training hot loops. The feature-major [dim][N] layout of every batch
 * matrix means forward lanes map to *samples*: each sample's
 * accumulation order (bias first, then fan-in / corner ascending) is
 * untouched by vectorization. The backward weight-gradient reduction
 * runs over samples, so its lanes map to independent (output, input)
 * pairs instead, each still summing samples in ascending order. Every
 * kernel variant here is therefore bit-exact with the scalar C++ loops
 * the equivalence tests pin down.
 *
 * Variants are compiled per-function with target attributes (AVX2+FMA
 * on x86-64, NEON on aarch64, portable scalar everywhere) and selected
 * once at startup by runtime CPUID. Two deliberate contracts:
 *
 *  - The AVX2 kernels use separate multiply + add intrinsics, NOT
 *    fused multiply-add, even though FMA availability gates the
 *    dispatch: the scalar baseline compiles with -ffp-contract=off, so
 *    a single-rounding FMA would break scalar/SIMD bit-equality.
 *  - `FUSION3D_SIMD_DISABLED` (env, any non-empty value) or
 *    forceScalar(true) pins the dispatch to the scalar variants — the
 *    CI forced-scalar job and the bench `--simd off` axis use this.
 */

#ifndef FUSION3D_COMMON_SIMD_H_
#define FUSION3D_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace fusion3d::simd
{

/** CPU features detected at startup (compile-time on aarch64). */
struct Caps
{
    bool avx2 = false;
    bool fma = false;
    bool f16c = false;
    bool avx512f = false;
    bool neon = false;
};

/** Runtime CPU capabilities (detected once, cached). */
const Caps &caps();

/** Which kernel variant set the process dispatches to. */
enum class Dispatch
{
    scalar,
    avx2,
    neon,
};

/** Stable lowercase name of a dispatch path (logs, JSON, metrics). */
const char *dispatchName(Dispatch d);

/** The active dispatch: the widest supported variant, unless the
 *  FUSION3D_SIMD_DISABLED env var or forceScalar(true) pins scalar. */
Dispatch activeDispatch();

/** Name of activeDispatch() — the value bench JSON and metrics record. */
const char *dispatchName();

/**
 * Programmatically pin the dispatch to the scalar variants (true) or
 * restore CPUID selection (false). Used by the bench `--simd off` axis
 * and the SIMD equivalence tests; thread-safe.
 */
void forceScalar(bool on);

/** True if the env var or forceScalar() currently pins scalar. */
bool scalarForced();

/** @p dim rounded up to a whole number of 8-float vectors: the row
 *  width of the sample-major scratch mlpLayerBackward transposes into. */
inline constexpr std::size_t
lanePad(int dim)
{
    return (static_cast<std::size_t>(dim) + 7) & ~std::size_t(7);
}

/** Samples per gather block: the SoA corner index/weight staging the
 *  hash-encode hot loop hands to the gather kernels. */
inline constexpr std::size_t kGatherBlock = 64;

/**
 * The kernel table. All matrices are feature-major with the sample
 * index fastest; `idx`/`wts` of the gather kernels are corner-major
 * [8][kGatherBlock] blocks (corner c, sample j at c*kGatherBlock+j).
 */
struct Kernels
{
    /** dispatchName() of the variant set. */
    const char *name;

    /**
     * One dense layer over a feature-major batch:
     *   z[o*n+j] = b[o] + sum_i w[o*fan_in+i] * x[i*n+j]
     *   a[o*n+j] = relu ? max(z[o*n+j], 0) : z[o*n+j]
     * Per sample the accumulation is bias-first then fan-in ascending —
     * the exact order of Mlp::forward().
     */
    void (*mlpLayer)(const float *w, const float *b, const float *x, float *z,
                     float *a, int fan_in, int fan_out, std::size_t n,
                     bool relu);

    /**
     * Backward of one dense layer over a feature-major batch, given the
     * output gradient delta (ReLU derivative already folded in):
     *   gw[o*fan_in+i]    += sum_j delta[o*n+j] * x[i*n+j]
     *   gb[o]             += sum_j delta[o*n+j]
     *   next_delta[i*n+j]  = sum_o delta[o*n+j] * w[o*fan_in+i]
     * Order contract, shared by every variant: each weight and bias
     * gradient sums j ascending from +0.0f and is added into gw/gb
     * once; each next_delta element sums o ascending from +0.0f; every
     * term is a separate multiply then add. The vector variants put
     * lanes over (o, i) for the gradients — reading sample-major
     * transposes they write into @p xt (n * lanePad(fan_in) floats) and
     * @p dt (n * lanePad(fan_out) floats) — and over samples for
     * next_delta. The scalar variant ignores both scratch buffers.
     */
    void (*mlpLayerBackward)(const float *w, const float *x,
                             const float *delta, float *next_delta,
                             float *gw, float *gb, int fan_in, int fan_out,
                             std::size_t n, float *xt, float *dt);

    /**
     * 8-corner trilinear gather over a two-feature fp32 table:
     *   out0[j] = sum_c wts[c][j] * tab[idx[c][j]*2 + 0]
     *   out1[j] = sum_c wts[c][j] * tab[idx[c][j]*2 + 1]
     * accumulated corner-ascending per sample (nb <= kGatherBlock).
     */
    void (*gatherInterp2)(const float *tab, const std::uint32_t *idx,
                          const float *wts, std::size_t nb, float *out0,
                          float *out1);

    /** gatherInterp2 over a packed binary16 table (exact widening). */
    void (*gatherInterp2F16)(const std::uint16_t *tab, const std::uint32_t *idx,
                             const float *wts, std::size_t nb, float *out0,
                             float *out1);

    /**
     * gatherInterp2 over a packed INT8 table with a per-tensor scale;
     * each loaded feature dequantizes as float(q) * scale before the
     * weighted accumulation (identical to a dequantize-then-fp32 pass).
     * The table must be padded by >= 2 bytes past its last entry (the
     * AVX2 variant uses 32-bit gathers).
     */
    void (*gatherInterp2I8)(const std::int8_t *tab, float scale,
                            const std::uint32_t *idx, const float *wts,
                            std::size_t nb, float *out0, float *out1);
};

/** The kernel set of the active dispatch (honors forceScalar/env). */
const Kernels &kernels();

/**
 * Exact inline binary16 -> float32 widening (bit manipulation, no
 * libcall) used by the quantized scalar paths; agrees bit-for-bit with
 * Half::toFloat for all 65536 patterns (asserted by test_simd).
 */
inline float
halfBitsToFloat(std::uint16_t h)
{
    const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
    std::uint32_t exp = (h >> 10) & 0x1fu;
    std::uint32_t man = h & 0x3ffu;
    std::uint32_t bits;
    if (exp == 0) {
        if (man == 0) {
            bits = sign; // +-0
        } else {
            // Subnormal half: normalize into a float exponent.
            int e = -1;
            std::uint32_t m = man;
            do {
                ++e;
                m <<= 1;
            } while ((m & 0x400u) == 0);
            bits = sign | ((127u - 15u - static_cast<std::uint32_t>(e)) << 23) |
                   ((m & 0x3ffu) << 13);
        }
    } else if (exp == 0x1f) {
        bits = sign | 0x7f800000u | (man << 13); // inf / NaN
    } else {
        bits = sign | ((exp + (127u - 15u)) << 23) | (man << 13);
    }
    float out;
    __builtin_memcpy(&out, &bits, sizeof(out));
    return out;
}

} // namespace fusion3d::simd

#endif // FUSION3D_COMMON_SIMD_H_
