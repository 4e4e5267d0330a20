#include "nerf/hash_encoding.h"

#include <algorithm>
#include <cmath>

#include "common/half.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"

#if defined(__x86_64__) || defined(__i386__)
#define F3D_HASH_SIMD_X86 1
#include <immintrin.h>
#endif

namespace fusion3d::nerf
{

namespace
{

/** Corner indices and trilinear weights of one point at one level. */
struct LevelCorners
{
    std::uint32_t indices[8];
    float weights[8];
};

/**
 * Corner gather with the level constants (resolution, dense flag,
 * vertex-row stride, hash mask) hoisted by the caller. The arithmetic
 * — and therefore every float result — is identical to
 * HashGridEncoding::gatherCorners; this variant just drops the
 * per-corner dense/hashed branch through vertexIndex and the coords
 * bookkeeping the visitor path needs.
 */
inline void
cornerIndicesWeights(const Vec3f &pos, float fres, bool dense, std::uint32_t n1,
                     std::uint32_t mask, LevelCorners &lc)
{
    const Vec3f p = clamp(pos, 0.0f, 1.0f);
    const Vec3f scaled{std::min(p.x * fres, fres - 1e-4f),
                       std::min(p.y * fres, fres - 1e-4f),
                       std::min(p.z * fres, fres - 1e-4f)};
    const Vec3i base = floorToInt(scaled);
    const Vec3f frac = scaled - toFloat(base);

    for (int c = 0; c < 8; ++c) {
        const int dx = c & 1;
        const int dy = (c >> 1) & 1;
        const int dz = (c >> 2) & 1;
        const Vec3i v{base.x + dx, base.y + dy, base.z + dz};
        lc.indices[c] =
            dense ? (static_cast<std::uint32_t>(v.z) * n1 +
                     static_cast<std::uint32_t>(v.y)) *
                            n1 +
                        static_cast<std::uint32_t>(v.x)
                  : HashGridEncoding::hashCoords(v, mask);
        const float wx = dx ? frac.x : 1.0f - frac.x;
        const float wy = dy ? frac.y : 1.0f - frac.y;
        const float wz = dz ? frac.z : 1.0f - frac.z;
        lc.weights[c] = wx * wy * wz;
    }
}

#if defined(F3D_HASH_SIMD_X86)

/**
 * AVX2 block staging: cornerIndicesWeights for 8 points per iteration,
 * lanes mapping to samples, results stored corner-major into the
 * [8][kGatherBlock] idx/wts arrays. Every float op mirrors the scalar
 * helper exactly — clamp as min(max(v,0),1) (== std::clamp for finite
 * inputs), floor via _mm256_floor_ps, frac as scaled - floor, weights
 * as (wx*wy)*wz — and the integer index math (32-bit wraparound
 * multiplies, xor, mask) is bitwise by construction, so staged indices
 * and weights match the scalar path bit for bit. (For a -0.0 input
 * component the clamp yields +0.0 where std::clamp keeps -0.0; the
 * downstream products and sums are identical either way.)
 */
__attribute__((target("avx2"))) void
stageCornersAvx2(const Vec3f *pos, std::size_t n8, float fres, bool dense,
                 std::uint32_t n1, std::uint32_t mask, std::uint32_t prime_x,
                 std::uint32_t prime_y, std::uint32_t prime_z,
                 std::uint32_t *idx, float *wts)
{
    const __m256 zero = _mm256_setzero_ps();
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 vres = _mm256_set1_ps(fres);
    const __m256 vmaxc = _mm256_set1_ps(fres - 1e-4f);
    const __m256i ione = _mm256_set1_epi32(1);
    const __m256i vn1 = _mm256_set1_epi32(static_cast<int>(n1));
    const __m256i vmask = _mm256_set1_epi32(static_cast<int>(mask));
    const __m256i vpx = _mm256_set1_epi32(static_cast<int>(prime_x));
    const __m256i vpy = _mm256_set1_epi32(static_cast<int>(prime_y));
    const __m256i vpz = _mm256_set1_epi32(static_cast<int>(prime_z));
    // Vec3f is three packed floats; gather x/y/z lanes at stride 3.
    const __m256i stride = _mm256_setr_epi32(0, 3, 6, 9, 12, 15, 18, 21);

    for (std::size_t j = 0; j < n8; j += 8) {
        const float *pf = reinterpret_cast<const float *>(pos + j);
        __m256 px = _mm256_i32gather_ps(pf + 0, stride, 4);
        __m256 py = _mm256_i32gather_ps(pf + 1, stride, 4);
        __m256 pz = _mm256_i32gather_ps(pf + 2, stride, 4);
        px = _mm256_min_ps(_mm256_max_ps(px, zero), one);
        py = _mm256_min_ps(_mm256_max_ps(py, zero), one);
        pz = _mm256_min_ps(_mm256_max_ps(pz, zero), one);
        const __m256 sx = _mm256_min_ps(_mm256_mul_ps(px, vres), vmaxc);
        const __m256 sy = _mm256_min_ps(_mm256_mul_ps(py, vres), vmaxc);
        const __m256 sz = _mm256_min_ps(_mm256_mul_ps(pz, vres), vmaxc);
        const __m256 fx = _mm256_floor_ps(sx);
        const __m256 fy = _mm256_floor_ps(sy);
        const __m256 fz = _mm256_floor_ps(sz);
        const __m256i bx = _mm256_cvttps_epi32(fx);
        const __m256i by = _mm256_cvttps_epi32(fy);
        const __m256i bz = _mm256_cvttps_epi32(fz);
        const __m256 frx = _mm256_sub_ps(sx, fx);
        const __m256 fry = _mm256_sub_ps(sy, fy);
        const __m256 frz = _mm256_sub_ps(sz, fz);
        const __m256 ivx = _mm256_sub_ps(one, frx);
        const __m256 ivy = _mm256_sub_ps(one, fry);
        const __m256 ivz = _mm256_sub_ps(one, frz);
        const __m256i bx1 = _mm256_add_epi32(bx, ione);
        const __m256i by1 = _mm256_add_epi32(by, ione);
        const __m256i bz1 = _mm256_add_epi32(bz, ione);

        for (int c = 0; c < 8; ++c) {
            const bool dx = (c & 1) != 0;
            const bool dy = ((c >> 1) & 1) != 0;
            const bool dz = ((c >> 2) & 1) != 0;
            const __m256i vx = dx ? bx1 : bx;
            const __m256i vy = dy ? by1 : by;
            const __m256i vz = dz ? bz1 : bz;
            __m256i vi;
            if (dense)
                vi = _mm256_add_epi32(
                    _mm256_mullo_epi32(
                        _mm256_add_epi32(_mm256_mullo_epi32(vz, vn1), vy),
                        vn1),
                    vx);
            else
                vi = _mm256_and_si256(
                    _mm256_xor_si256(
                        _mm256_xor_si256(_mm256_mullo_epi32(vx, vpx),
                                         _mm256_mullo_epi32(vy, vpy)),
                        _mm256_mullo_epi32(vz, vpz)),
                    vmask);
            const __m256 w = _mm256_mul_ps(
                _mm256_mul_ps(dx ? frx : ivx, dy ? fry : ivy),
                dz ? frz : ivz);
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(
                    idx + static_cast<std::size_t>(c) * simd::kGatherBlock + j),
                vi);
            _mm256_storeu_ps(
                wts + static_cast<std::size_t>(c) * simd::kGatherBlock + j, w);
        }
    }
}

#endif // F3D_HASH_SIMD_X86

/** One level's constants for corner staging. */
struct LevelGeometry
{
    float fres;
    bool dense;
    std::uint32_t n1;
    std::uint32_t mask;
};

LevelGeometry
levelGeometry(const HashGridEncoding &enc, int level)
{
    const int res = enc.resolution(level);
    return {static_cast<float>(res), enc.isDense(level),
            static_cast<std::uint32_t>(res + 1), enc.config().tableSize() - 1};
}

/**
 * Stage the corner indices/weights of @p nb <= kGatherBlock points into
 * corner-major [8][kGatherBlock] blocks: the AVX2 staging for whole
 * groups of 8 when @p avx2, the scalar helper for the rest. Both give
 * bit-identical indices and weights.
 */
inline void
stageCorners(const Vec3f *pos, std::size_t nb, const LevelGeometry &g,
             [[maybe_unused]] bool avx2, std::uint32_t *idx, float *wts)
{
    std::size_t j = 0;
#if defined(F3D_HASH_SIMD_X86)
    if (avx2) {
        j = nb & ~std::size_t(7);
        if (j > 0)
            stageCornersAvx2(pos, j, g.fres, g.dense, g.n1, g.mask,
                             HashGridEncoding::kPrimeX,
                             HashGridEncoding::kPrimeY,
                             HashGridEncoding::kPrimeZ, idx, wts);
    }
#endif
    LevelCorners lc;
    for (; j < nb; ++j) {
        cornerIndicesWeights(pos[j], g.fres, g.dense, g.n1, g.mask, lc);
        for (int c = 0; c < 8; ++c) {
            idx[c * simd::kGatherBlock + j] = lc.indices[c];
            wts[c * simd::kGatherBlock + j] = lc.weights[c];
        }
    }
}

/** True when corner staging should take the AVX2 path: under the same
 *  dispatch pin as the kernel table, so forceScalar() still exercises
 *  the scalar loop. */
bool
stageWithAvx2()
{
    return simd::activeDispatch() == simd::Dispatch::avx2;
}

} // namespace

HashGridEncoding::LevelLayout
HashGridEncoding::levelLayout(const HashGridConfig &cfg, int level)
{
    // Per-level geometric growth factor, as in Instant-NGP eq. (3).
    const double growth =
        cfg.levels > 1
            ? std::exp((std::log(static_cast<double>(cfg.maxResolution)) -
                        std::log(static_cast<double>(cfg.baseResolution))) /
                       static_cast<double>(cfg.levels - 1))
            : 1.0;
    LevelLayout lv;
    lv.resolution = static_cast<int>(
        std::floor(static_cast<double>(cfg.baseResolution) * std::pow(growth, level)));
    const std::uint64_t dense_entries = static_cast<std::uint64_t>(lv.resolution + 1) *
                                        (lv.resolution + 1) * (lv.resolution + 1);
    lv.dense = dense_entries <= cfg.tableSize();
    lv.entries = lv.dense ? static_cast<std::uint32_t>(dense_entries) : cfg.tableSize();
    return lv;
}

std::size_t
HashGridEncoding::paramCountFor(const HashGridConfig &cfg)
{
    std::size_t total = 0;
    for (int l = 0; l < cfg.levels; ++l)
        total += static_cast<std::size_t>(levelLayout(cfg, l).entries) *
                 cfg.featuresPerLevel;
    return total;
}

HashGridEncoding::HashGridEncoding(const HashGridConfig &cfg, std::uint64_t seed)
    : cfg_(cfg)
{
    if (cfg.levels < 1)
        fatal("HashGridEncoding needs at least one level");
    if (cfg.featuresPerLevel < 1 || cfg.featuresPerLevel > 8)
        fatal("HashGridEncoding supports 1..8 features per level (got %d)",
              cfg.featuresPerLevel);
    if (cfg.baseResolution < 1 || cfg.maxResolution < cfg.baseResolution)
        fatal("HashGridEncoding resolution range invalid (%d..%d)",
              cfg.baseResolution, cfg.maxResolution);

    resolutions_.resize(cfg.levels);
    dense_.resize(cfg.levels);
    entries_.resize(cfg.levels);
    offsets_.resize(cfg.levels);

    std::size_t total_floats = 0;
    for (int l = 0; l < cfg.levels; ++l) {
        const LevelLayout lv = levelLayout(cfg, l);
        resolutions_[l] = lv.resolution;
        dense_[l] = lv.dense;
        entries_[l] = lv.entries;
        offsets_[l] = total_floats;
        total_floats += static_cast<std::size_t>(entries_[l]) * cfg.featuresPerLevel;
    }

    params_.resize(total_floats);
    grads_.assign(total_floats, 0.0f);
    param_count_ = total_floats;

    // Small uniform init, as in Instant-NGP (U[-1e-4, 1e-4]).
    Pcg32 rng(seed, 0x9e3779b97f4a7c15ULL);
    for (float &p : params_)
        p = rng.nextRange(-1e-4f, 1e-4f);
}

std::uint32_t
HashGridEncoding::vertexIndex(int level, const Vec3i &c) const
{
    if (dense_[level]) {
        const std::uint32_t n = static_cast<std::uint32_t>(resolutions_[level] + 1);
        return (static_cast<std::uint32_t>(c.z) * n + static_cast<std::uint32_t>(c.y)) * n +
               static_cast<std::uint32_t>(c.x);
    }
    return hashCoords(c, cfg_.tableSize() - 1);
}

void
HashGridEncoding::gatherCorners(int level, const Vec3f &pos, CornerSet &cs) const
{
    const float n = static_cast<float>(resolutions_[level]);
    // Clamp so base+1 stays a valid vertex even at pos == 1.0.
    const Vec3f p = clamp(pos, 0.0f, 1.0f);
    const Vec3f scaled{std::min(p.x * n, n - 1e-4f),
                       std::min(p.y * n, n - 1e-4f),
                       std::min(p.z * n, n - 1e-4f)};
    const Vec3i base = floorToInt(scaled);
    const Vec3f frac = scaled - toFloat(base);

    for (int c = 0; c < 8; ++c) {
        const int dx = c & 1;
        const int dy = (c >> 1) & 1;
        const int dz = (c >> 2) & 1;
        const Vec3i v{base.x + dx, base.y + dy, base.z + dz};
        cs.coords[c] = v;
        cs.indices[c] = vertexIndex(level, v);
        const float wx = dx ? frac.x : 1.0f - frac.x;
        const float wy = dy ? frac.y : 1.0f - frac.y;
        const float wz = dz ? frac.z : 1.0f - frac.z;
        cs.weights[c] = wx * wy * wz;
    }
}

void
HashGridEncoding::encode(const Vec3f &pos, std::span<float> out,
                         VertexVisitor *visitor) const
{
    const int fpl = cfg_.featuresPerLevel;
    if (out.size() < static_cast<std::size_t>(cfg_.encodedDims()))
        panic("HashGridEncoding::encode output span too small");
    if (!has_fp32_)
        panic("HashGridEncoding::encode requires fp32 table (dropped)");

    CornerSet cs;
    for (int l = 0; l < cfg_.levels; ++l) {
        gatherCorners(l, pos, cs);
        float acc[8]; // featuresPerLevel <= 8 supported
        for (int f = 0; f < fpl; ++f)
            acc[f] = 0.0f;
        const std::size_t base = offsets_[l];
        for (int c = 0; c < 8; ++c) {
            const std::size_t at = base + static_cast<std::size_t>(cs.indices[c]) * fpl;
            const float w = cs.weights[c];
            for (int f = 0; f < fpl; ++f)
                acc[f] += w * params_[at + f];
            if (visitor)
                visitor->visit(l, c, cs.coords[c], cs.indices[c], dense_[l]);
        }
        for (int f = 0; f < fpl; ++f)
            out[static_cast<std::size_t>(l) * fpl + f] = acc[f];
    }
}

void
HashGridEncoding::backward(const Vec3f &pos, std::span<const float> dout)
{
    const int fpl = cfg_.featuresPerLevel;
    if (dout.size() < static_cast<std::size_t>(cfg_.encodedDims()))
        panic("HashGridEncoding::backward gradient span too small");
    if (!has_fp32_)
        panic("HashGridEncoding::backward requires fp32 table (dropped)");

    CornerSet cs;
    for (int l = 0; l < cfg_.levels; ++l) {
        gatherCorners(l, pos, cs);
        const std::size_t base = offsets_[l];
        for (int c = 0; c < 8; ++c) {
            const std::size_t at = base + static_cast<std::size_t>(cs.indices[c]) * fpl;
            const float w = cs.weights[c];
            for (int f = 0; f < fpl; ++f)
                grads_[at + f] += w * dout[static_cast<std::size_t>(l) * fpl + f];
        }
    }
}

void
HashGridEncoding::encodeBatch(std::span<const Vec3f> pos, std::span<float> out,
                              VertexVisitor *visitor) const
{
    const int fpl = cfg_.featuresPerLevel;
    const std::size_t n = pos.size();
    if (out.size() < static_cast<std::size_t>(cfg_.encodedDims()) * n)
        panic("HashGridEncoding::encodeBatch output span too small (%zu < %zu)",
              out.size(), static_cast<std::size_t>(cfg_.encodedDims()) * n);

    // One dispatch lookup per call; block-staged SoA corner
    // indices/weights ([8][kGatherBlock], corner-major) feed the gather
    // kernels, whose lanes map to samples — per point the corner
    // accumulation order matches encode() exactly.
    const simd::Kernels &kern = simd::kernels();
    std::uint32_t idx[8 * simd::kGatherBlock];
    float wts[8 * simd::kGatherBlock];
    // Corner staging (clamp/scale/floor/hash/trilinear weights)
    // dominates encodeBatch once the gather is vectorized.
    const bool stage_avx2 = stageWithAvx2();

    CornerSet cs;
    LevelCorners lc;
    for (int l = 0; l < cfg_.levels; ++l) {
        const std::size_t base = offsets_[l];
        const std::size_t row = static_cast<std::size_t>(l) * fpl * n;
        if (visitor) {
            // Access-trace observation always runs over the fp32 master
            // table (the chip model traces training-precision runs).
            if (!has_fp32_)
                panic("HashGridEncoding::encodeBatch visitor path requires "
                      "fp32 table (dropped)");
            // Observed path: full gatherCorners so the visitor sees
            // coords, in the same contiguous 8-corner groups.
            for (std::size_t j = 0; j < n; ++j) {
                gatherCorners(l, pos[j], cs);
                float acc[8]; // featuresPerLevel <= 8 supported
                for (int f = 0; f < fpl; ++f)
                    acc[f] = 0.0f;
                for (int c = 0; c < 8; ++c) {
                    const std::size_t at =
                        base + static_cast<std::size_t>(cs.indices[c]) * fpl;
                    const float w = cs.weights[c];
                    for (int f = 0; f < fpl; ++f)
                        acc[f] += w * params_[at + f];
                    visitor->visit(l, c, cs.coords[c], cs.indices[c], dense_[l]);
                }
                for (int f = 0; f < fpl; ++f)
                    out[row + static_cast<std::size_t>(f) * n + j] = acc[f];
            }
            continue;
        }

        // Hot path: level constants hoisted out of the point loop,
        // gather specialized for the common two-feature tables. Per
        // point the accumulation order matches encode() exactly.
        const LevelGeometry geo = levelGeometry(*this, l);
        const float *lp = has_fp32_ ? params_.data() + base : nullptr;
        const std::uint16_t *lq16 = quant_mode_ == QuantMode::fp16
                                        ? qtab_fp16_.data() + base
                                        : nullptr;
        const std::int8_t *lq8 = quant_mode_ == QuantMode::int8
                                     ? qtab_int8_.data() + base
                                     : nullptr;
        const float scale =
            lq8 != nullptr ? qlevel_scales_[static_cast<std::size_t>(l)].scale
                           : 1.0f;
        if (lp == nullptr && lq16 == nullptr && lq8 == nullptr)
            panic("HashGridEncoding::encodeBatch fp32 table dropped without "
                  "a packed table");
        if (fpl == 2) {
            for (std::size_t j0 = 0; j0 < n; j0 += simd::kGatherBlock) {
                const std::size_t nb = std::min(simd::kGatherBlock, n - j0);
                stageCorners(pos.data() + j0, nb, geo, stage_avx2, idx, wts);
                float *out0 = out.data() + row + j0;
                float *out1 = out.data() + row + n + j0;
                if (lq16 != nullptr)
                    kern.gatherInterp2F16(lq16, idx, wts, nb, out0, out1);
                else if (lq8 != nullptr)
                    kern.gatherInterp2I8(lq8, scale, idx, wts, nb, out0, out1);
                else
                    kern.gatherInterp2(lp, idx, wts, nb, out0, out1);
            }
        } else {
            for (std::size_t j = 0; j < n; ++j) {
                cornerIndicesWeights(pos[j], geo.fres, geo.dense, geo.n1,
                                     geo.mask, lc);
                float acc[8];
                for (int f = 0; f < fpl; ++f)
                    acc[f] = 0.0f;
                for (int c = 0; c < 8; ++c) {
                    const std::size_t at =
                        static_cast<std::size_t>(lc.indices[c]) * fpl;
                    const float w = lc.weights[c];
                    if (lq16 != nullptr) {
                        for (int f = 0; f < fpl; ++f)
                            acc[f] += w * simd::halfBitsToFloat(lq16[at + f]);
                    } else if (lq8 != nullptr) {
                        for (int f = 0; f < fpl; ++f)
                            acc[f] +=
                                w * (static_cast<float>(lq8[at + f]) * scale);
                    } else {
                        for (int f = 0; f < fpl; ++f)
                            acc[f] += w * lp[at + f];
                    }
                }
                for (int f = 0; f < fpl; ++f)
                    out[row + static_cast<std::size_t>(f) * n + j] = acc[f];
            }
        }
    }
}

void
HashGridEncoding::backwardBatchInto(std::span<const Vec3f> pos,
                                    std::span<const float> dout,
                                    HashGradAccumulator &acc) const
{
    const int fpl = cfg_.featuresPerLevel;
    const std::size_t n = pos.size();
    if (dout.size() < static_cast<std::size_t>(cfg_.encodedDims()) * n)
        panic("HashGridEncoding::backwardBatchInto gradient span too small");
    if (!has_fp32_)
        panic("HashGridEncoding::backwardBatchInto requires fp32 table "
              "(dropped)");

    const std::size_t levels = static_cast<std::size_t>(cfg_.levels);
    if (acc.used_.size() != levels) {
        acc.touched_.assign(levels, {});
        acc.partial_.assign(levels, {});
        acc.used_.assign(levels, 0);
        acc.total_touched_ = 0;
    }

    // Entry -> 1 + slot map of the level being scattered; 0 = not yet
    // touched. One per thread, sized to the largest level and all-zero
    // between calls, so it stays cache-resident however many shard
    // accumulators the thread serves.
    thread_local std::vector<std::uint32_t> slot_map;

    std::uint32_t idx[8 * simd::kGatherBlock];
    float wts[8 * simd::kGatherBlock];
    const bool stage_avx2 = stageWithAvx2();
    for (int l = 0; l < cfg_.levels; ++l) {
        const std::size_t lv = static_cast<std::size_t>(l);
        const LevelGeometry geo = levelGeometry(*this, l);
        const float *ldout = dout.data() + lv * fpl * n;
        std::vector<std::uint32_t> &touched = acc.touched_[lv];
        std::vector<float> &partial = acc.partial_[lv];
        std::size_t used = acc.used_[lv];
        // Room for every corner of the batch to be a first touch, so
        // the scatter below appends without a capacity check.
        if (touched.size() < used + 8 * n) {
            touched.resize(used + 8 * n);
            partial.resize((used + 8 * n) * static_cast<std::size_t>(fpl), 0.0f);
        }
        if (slot_map.size() < entries_[l])
            slot_map.resize(entries_[l], 0);
        std::uint32_t *slot = slot_map.data();
        std::uint32_t *tp = touched.data();
        float *pp = partial.data();
        // Entries this accumulator already holds (a second call before
        // a merge) keep their slots.
        const std::size_t first = used;
        for (std::size_t k = 0; k < first; ++k)
            slot[tp[k]] = static_cast<std::uint32_t>(k + 1);

        for (std::size_t j0 = 0; j0 < n; j0 += simd::kGatherBlock) {
            const std::size_t nb = std::min(simd::kGatherBlock, n - j0);
            stageCorners(pos.data() + j0, nb, geo, stage_avx2, idx, wts);
            for (std::size_t j = 0; j < nb; ++j) {
                for (int c = 0; c < 8; ++c) {
                    const std::size_t at = c * simd::kGatherBlock + j;
                    const std::uint32_t e = idx[at];
                    // Branch-free first touch: the entry is written to
                    // the next slot either way, and kept only if new.
                    std::uint32_t s = slot[e];
                    const bool fresh = s == 0;
                    tp[used] = e;
                    s = fresh ? static_cast<std::uint32_t>(used + 1) : s;
                    slot[e] = s;
                    used += fresh ? 1 : 0;
                    float *g = pp + static_cast<std::size_t>(s - 1) * fpl;
                    const float w = wts[at];
                    for (int f = 0; f < fpl; ++f)
                        g[f] += w * ldout[static_cast<std::size_t>(f) * n + j0 + j];
                }
            }
        }
        for (std::size_t k = 0; k < used; ++k)
            slot[tp[k]] = 0;
        acc.used_[lv] = used;
        acc.total_touched_ += used - first;
    }
}

void
HashGridEncoding::mergeGradShards(std::span<HashGradAccumulator *const> shards,
                                  ThreadPool *pool)
{
    // Levels own disjoint ranges of grads_ and of every accumulator, so
    // they merge independently; within a level shards stay ascending
    // and entries in first-touch order, which fixes every entry's sum
    // order whatever the pool does.
    const int fpl = cfg_.featuresPerLevel;
    const auto merge_level = [&](int l) {
        const std::size_t lv = static_cast<std::size_t>(l);
        float *g = grads_.data() + offsets_[l];
        for (HashGradAccumulator *acc : shards) {
            if (!acc || acc->used_.size() <= lv || acc->used_[lv] == 0)
                continue;
            const std::uint32_t *touched = acc->touched_[lv].data();
            float *partial = acc->partial_[lv].data();
            const std::size_t used = acc->used_[lv];
            for (std::size_t k = 0; k < used; ++k) {
                float *ge = g + static_cast<std::size_t>(touched[k]) * fpl;
                float *pk = partial + k * static_cast<std::size_t>(fpl);
                for (int f = 0; f < fpl; ++f) {
                    ge[f] += pk[f];
                    pk[f] = 0.0f;
                }
            }
        }
    };
    if (pool) {
        pool->parallelFor(
            0, cfg_.levels,
            [&](int b, int e) {
                for (int l = b; l < e; ++l)
                    merge_level(l);
            },
            1);
    } else {
        for (int l = 0; l < cfg_.levels; ++l)
            merge_level(l);
    }
    for (HashGradAccumulator *acc : shards) {
        if (!acc)
            continue;
        std::fill(acc->used_.begin(), acc->used_.end(), 0);
        acc->total_touched_ = 0;
    }
}

void
HashGridEncoding::zeroGrads()
{
    std::fill(grads_.begin(), grads_.end(), 0.0f);
}

void
HashGridEncoding::buildQuantized(QuantMode mode)
{
    if (!has_fp32_)
        panic("HashGridEncoding::buildQuantized requires fp32 master table "
              "(dropped)");
    qtab_fp16_.clear();
    qtab_int8_.clear();
    qlevel_scales_.clear();
    quant_mode_ = mode;
    if (mode == QuantMode::fp32)
        return;

    if (mode == QuantMode::fp16) {
        qtab_fp16_.resize(param_count_);
        for (std::size_t k = 0; k < param_count_; ++k)
            qtab_fp16_[k] = Half::fromFloat(params_[k]).bits();
        return;
    }

    // INT8: per-level symmetric scales; +4 pad bytes for the AVX2
    // 32-bit entry gathers (byte stride 2 over-reads the last entry).
    qtab_int8_.resize(param_count_ + 4, 0);
    qlevel_scales_.resize(static_cast<std::size_t>(cfg_.levels));
    for (int l = 0; l < cfg_.levels; ++l) {
        const std::size_t base = offsets_[l];
        const std::size_t count =
            static_cast<std::size_t>(entries_[l]) * cfg_.featuresPerLevel;
        const QuantScale qs = computeScale({params_.data() + base, count});
        qlevel_scales_[static_cast<std::size_t>(l)] = qs;
        const std::vector<std::int8_t> q =
            quantize({params_.data() + base, count}, qs);
        std::copy(q.begin(), q.end(), qtab_int8_.begin() + base);
    }
}

void
HashGridEncoding::dropFp32Weights()
{
    if (quant_mode_ == QuantMode::fp32)
        panic("HashGridEncoding::dropFp32Weights needs a packed table "
              "(quantMode fp32)");
    params_.clear();
    params_.shrink_to_fit();
    grads_.clear();
    grads_.shrink_to_fit();
    has_fp32_ = false;
}

std::size_t
HashGridEncoding::residentParamBytes() const
{
    return params_.size() * sizeof(float) +
           qtab_fp16_.size() * sizeof(std::uint16_t) +
           qtab_int8_.size() * sizeof(std::int8_t) +
           qlevel_scales_.size() * sizeof(QuantScale);
}

std::vector<float>
HashGridEncoding::dequantizedParams() const
{
    if (quant_mode_ == QuantMode::fp32) {
        if (!has_fp32_)
            panic("HashGridEncoding::dequantizedParams fp32 table dropped");
        return params_;
    }
    std::vector<float> out(param_count_);
    if (quant_mode_ == QuantMode::fp16) {
        for (std::size_t k = 0; k < param_count_; ++k)
            out[k] = simd::halfBitsToFloat(qtab_fp16_[k]);
        return out;
    }
    for (int l = 0; l < cfg_.levels; ++l) {
        const std::size_t base = offsets_[l];
        const std::size_t count =
            static_cast<std::size_t>(entries_[l]) * cfg_.featuresPerLevel;
        const float s = qlevel_scales_[static_cast<std::size_t>(l)].scale;
        for (std::size_t k = 0; k < count; ++k)
            out[base + k] = static_cast<float>(qtab_int8_[base + k]) * s;
    }
    return out;
}

} // namespace fusion3d::nerf
