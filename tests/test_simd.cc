/** @file Bit-exactness contracts of the SIMD dispatch layer: hardware
 *  kernels vs forced-scalar for the MLP GEMM and layer backward, the
 *  hash-grid encode, the whole-model forward, and the sharded
 *  whole-model backward (also across pool sizes); the packed
 *  fp16/INT8 inference path vs a
 *  dequantize-then-fp32 oracle; occupancy compaction vs the gated
 *  evaluator; and the v4 quantized artifact round-trip. */

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/half.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "nerf/mlp.h"
#include "nerf/nerf_model.h"
#include "nerf/pipeline.h"
#include "nerf/serialize.h"

namespace fusion3d::nerf
{
namespace
{

/** Restores the dispatch pin on scope exit so a failing test cannot
 *  leak forced-scalar state into later tests. */
struct ScopedForceScalar
{
    explicit ScopedForceScalar(bool on) { simd::forceScalar(on); }
    ~ScopedForceScalar() { simd::forceScalar(false); }
};

NerfModelConfig
tinyModel()
{
    NerfModelConfig mc;
    mc.grid.levels = 6;
    mc.grid.featuresPerLevel = 2;
    mc.grid.log2TableSize = 12;
    mc.grid.baseResolution = 8;
    mc.grid.maxResolution = 64;
    mc.geoFeatures = 7;
    mc.densityHidden = 16;
    mc.colorHidden = 16;
    mc.shDegree = 2;
    return mc;
}

void
randomBatch(std::size_t n, std::uint64_t seed, std::vector<Vec3f> &pos,
            std::vector<Vec3f> &dirs)
{
    Pcg32 rng(seed);
    pos.resize(n);
    dirs.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
        pos[j] = clamp(rng.nextVec3(), 0.01f, 0.99f);
        dirs[j] = rng.nextUnitVector();
    }
}

std::uint32_t
floatBits(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

/** Batch sizes crossing the gather block (64) and MLP tile boundaries,
 *  including ragged tails. */
const std::size_t kBatches[] = {1, 7, 32, 256, 333};

/**
 * The table-driven half decode agrees with the arithmetic Half class
 * on every one of the 65536 bit patterns (NaNs compared as NaN-ness:
 * payload propagation through a float widen is value-identical here,
 * but keep the comparison robust).
 */
TEST(Simd, HalfBitsToFloatMatchesHalfExhaustive)
{
    for (std::uint32_t b = 0; b < 0x10000u; ++b) {
        const std::uint16_t bits = static_cast<std::uint16_t>(b);
        const float got = simd::halfBitsToFloat(bits);
        const float want = Half::fromBits(bits).toFloat();
        if (std::isnan(want))
            EXPECT_TRUE(std::isnan(got)) << "bits " << b;
        else
            EXPECT_EQ(floatBits(got), floatBits(want)) << "bits " << b;
    }
}

TEST(Simd, ForceScalarPinsDispatch)
{
    ASSERT_NE(simd::dispatchName(), nullptr);
    {
        ScopedForceScalar pin(true);
        EXPECT_EQ(simd::activeDispatch(), simd::Dispatch::scalar);
        EXPECT_STREQ(simd::dispatchName(), "scalar");
    }
    // The env var keeps the pin latched regardless of forceScalar(false).
    if (std::getenv("FUSION3D_SIMD_DISABLED") == nullptr)
        EXPECT_FALSE(simd::scalarForced());
    else
        EXPECT_TRUE(simd::scalarForced());
}

/**
 * The dispatched GEMM microkernel is bit-exact with the scalar batched
 * loop at every batch size, including ragged SIMD tails: lanes map to
 * samples, so each sample's fan-in accumulation order is unchanged.
 */
TEST(Simd, MlpForwardBatchBitExactAcrossDispatch)
{
    Mlp mlp({30, 32, 16}, 41);
    MlpBatchWorkspace ws_hw = mlp.makeBatchWorkspace();
    MlpBatchWorkspace ws_sc = mlp.makeBatchWorkspace();

    for (const std::size_t n : kBatches) {
        Pcg32 rng(1000 + n);
        std::vector<float> input(static_cast<std::size_t>(mlp.inputDim()) * n);
        for (float &v : input)
            v = rng.nextFloat() * 2.0f - 1.0f;

        std::vector<float> out_hw, out_sc;
        {
            ScopedForceScalar pin(false);
            const auto out = mlp.forwardBatch(input, n, ws_hw);
            out_hw.assign(out.begin(), out.end());
        }
        {
            ScopedForceScalar pin(true);
            const auto out = mlp.forwardBatch(input, n, ws_sc);
            out_sc.assign(out.begin(), out.end());
        }
        ASSERT_EQ(out_hw.size(), out_sc.size());
        for (std::size_t i = 0; i < out_hw.size(); ++i)
            EXPECT_EQ(floatBits(out_hw[i]), floatBits(out_sc[i]))
                << "batch " << n << " element " << i;
    }
}

/** One mlpLayerBackward call on the active dispatch. */
struct LayerBackwardResult
{
    std::vector<float> gw, gb, next_delta;
};

LayerBackwardResult
runLayerBackward(const std::vector<float> &w, const std::vector<float> &x,
                 const std::vector<float> &delta, const std::vector<float> &gw0,
                 const std::vector<float> &gb0, int fan_in, int fan_out,
                 std::size_t n)
{
    LayerBackwardResult r{gw0, gb0, {}};
    // Stale values everywhere the kernel must overwrite.
    r.next_delta.assign(static_cast<std::size_t>(fan_in) * n, 1234.5f);
    std::vector<float> xt(simd::lanePad(fan_in) * n, -7.0f);
    std::vector<float> dt(simd::lanePad(fan_out) * n, -7.0f);
    simd::kernels().mlpLayerBackward(w.data(), x.data(), delta.data(),
                                     r.next_delta.data(), r.gw.data(),
                                     r.gb.data(), fan_in, fan_out, n, xt.data(),
                                     dt.data());
    return r;
}

void
expectBitsEqual(const std::vector<float> &a, const std::vector<float> &b,
                const char *what, int fan_in, int fan_out, std::size_t n)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(floatBits(a[i]), floatBits(b[i]))
            << what << " layer " << fan_in << "x" << fan_out << " batch " << n
            << " element " << i;
}

/**
 * The dispatched layer backward is bit-exact with the scalar loop:
 * weight and bias gradients (lanes over outputs/inputs, samples summed
 * ascending) and next_delta (lanes over samples, outputs summed
 * ascending), across ragged batch and fan sizes, with ReLU-masked and
 * negative-zero deltas and non-zero incoming gradients.
 */
TEST(Simd, MlpLayerBackwardBitExactAcrossDispatch)
{
    const int layers[][2] = {{16, 32}, {32, 16}, {31, 32}, {32, 3}};
    const std::size_t batches[] = {1, 7, 8, 9, 63, 64, 65, 280, 4483};
    for (const auto &layer : layers) {
        const int fan_in = layer[0];
        const int fan_out = layer[1];
        for (const std::size_t n : batches) {
            Pcg32 rng(static_cast<std::uint64_t>(fan_in * 1000 + fan_out) * 7919 +
                      n);
            const auto uniform = [&rng] { return rng.nextFloat() * 2.0f - 1.0f; };
            std::vector<float> w(static_cast<std::size_t>(fan_in) * fan_out);
            for (float &v : w)
                v = uniform();
            // Post-ReLU inputs: about half exact zeros.
            std::vector<float> x(static_cast<std::size_t>(fan_in) * n);
            for (float &v : x)
                v = std::max(uniform(), 0.0f);
            std::vector<float> delta(static_cast<std::size_t>(fan_out) * n);
            for (std::size_t k = 0; k < delta.size(); ++k) {
                const float u = uniform();
                if (k % 5 == 0)
                    delta[k] = 0.0f; // ReLU-masked
                else if (k % 7 == 0)
                    delta[k] = -0.0f;
                else
                    delta[k] = u;
            }
            std::vector<float> gw0(w.size()), gb0(static_cast<std::size_t>(fan_out));
            for (float &v : gw0)
                v = 0.25f * uniform();
            for (float &v : gb0)
                v = 0.25f * uniform();

            LayerBackwardResult hw, sc;
            {
                ScopedForceScalar pin(false);
                hw = runLayerBackward(w, x, delta, gw0, gb0, fan_in, fan_out, n);
            }
            {
                ScopedForceScalar pin(true);
                sc = runLayerBackward(w, x, delta, gw0, gb0, fan_in, fan_out, n);
            }
            expectBitsEqual(hw.gw, sc.gw, "gw", fan_in, fan_out, n);
            expectBitsEqual(hw.gb, sc.gb, "gb", fan_in, fan_out, n);
            expectBitsEqual(hw.next_delta, sc.next_delta, "next_delta", fan_in,
                            fan_out, n);
        }
    }
}

/** A row of all-negative-zero deltas sums to +0.0 in every variant:
 *  the reduction starts from +0.0f, never from the first term. */
TEST(Simd, MlpLayerBackwardNegativeZeroSumsToPositiveZero)
{
    const int fan_in = 9, fan_out = 3;
    const std::size_t n = 19;
    const std::vector<float> w(static_cast<std::size_t>(fan_in) * fan_out, 0.5f);
    const std::vector<float> x(static_cast<std::size_t>(fan_in) * n, 1.0f);
    const std::vector<float> delta(static_cast<std::size_t>(fan_out) * n, -0.0f);
    const std::vector<float> gw0(w.size(), -0.0f);
    const std::vector<float> gb0(static_cast<std::size_t>(fan_out), -0.0f);
    for (const bool scalar : {false, true}) {
        ScopedForceScalar pin(scalar);
        const LayerBackwardResult r =
            runLayerBackward(w, x, delta, gw0, gb0, fan_in, fan_out, n);
        for (const float v : r.gw)
            EXPECT_EQ(floatBits(v), floatBits(0.0f));
        for (const float v : r.gb)
            EXPECT_EQ(floatBits(v), floatBits(0.0f));
        for (const float v : r.next_delta)
            EXPECT_EQ(floatBits(v), floatBits(0.0f));
    }
}

/**
 * The dispatched gather/interpolate (and the AVX2 corner staging that
 * feeds it) is bit-exact with the scalar encode at every batch size.
 */
TEST(Simd, EncodeBatchBitExactAcrossDispatch)
{
    const NerfModelConfig mc = tinyModel();
    HashGridEncoding enc(mc.grid, 42);
    const std::size_t dims = static_cast<std::size_t>(mc.grid.encodedDims());

    for (const std::size_t n : kBatches) {
        std::vector<Vec3f> pos, dirs;
        randomBatch(n, 2000 + n, pos, dirs);
        std::vector<float> out_hw(dims * n), out_sc(dims * n);
        {
            ScopedForceScalar pin(false);
            enc.encodeBatch(pos, out_hw);
        }
        {
            ScopedForceScalar pin(true);
            enc.encodeBatch(pos, out_sc);
        }
        for (std::size_t i = 0; i < out_hw.size(); ++i)
            EXPECT_EQ(floatBits(out_hw[i]), floatBits(out_sc[i]))
                << "batch " << n << " element " << i;
    }
}

/** The hash-grid backward scatter stages its corners through the same
 *  AVX2 helper as the encode; the gradients match forced-scalar. */
TEST(Simd, HashBackwardBatchBitExactAcrossDispatch)
{
    const NerfModelConfig mc = tinyModel();
    const std::size_t dims = static_cast<std::size_t>(mc.grid.encodedDims());
    for (const std::size_t n : kBatches) {
        std::vector<Vec3f> pos, dirs;
        randomBatch(n, 2500 + n, pos, dirs);
        Pcg32 rng(2600 + n);
        std::vector<float> dout(dims * n);
        for (float &v : dout)
            v = rng.nextFloat() - 0.5f;
        HashGridEncoding hw(mc.grid, 42), sc(mc.grid, 42);
        HashGradAccumulator acc_hw, acc_sc;
        {
            ScopedForceScalar pin(false);
            hw.backwardBatchInto(pos, dout, acc_hw);
            HashGradAccumulator *const shards[] = {&acc_hw};
            hw.mergeGradShards(shards);
        }
        {
            ScopedForceScalar pin(true);
            sc.backwardBatchInto(pos, dout, acc_sc);
            HashGradAccumulator *const shards[] = {&acc_sc};
            sc.mergeGradShards(shards);
        }
        const std::span<float> ghw = hw.grads(), gsc = sc.grads();
        for (std::size_t i = 0; i < ghw.size(); ++i)
            ASSERT_EQ(floatBits(ghw[i]), floatBits(gsc[i]))
                << "batch " << n << " grad " << i;
    }
}

TEST(Simd, NerfModelForwardBatchBitExactAcrossDispatch)
{
    NerfModel model(tinyModel(), 43);
    NerfBatchWorkspace ws_hw = model.makeBatchWorkspace();
    NerfBatchWorkspace ws_sc = model.makeBatchWorkspace();

    for (const std::size_t n : kBatches) {
        std::vector<Vec3f> pos, dirs;
        randomBatch(n, 3000 + n, pos, dirs);
        std::vector<float> sig_hw(n), sig_sc(n);
        std::vector<Vec3f> rgb_hw(n), rgb_sc(n);
        {
            ScopedForceScalar pin(false);
            model.forwardBatch(pos, dirs, ws_hw, sig_hw, rgb_hw);
        }
        {
            ScopedForceScalar pin(true);
            model.forwardBatch(pos, dirs, ws_sc, sig_sc, rgb_sc);
        }
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_EQ(floatBits(sig_hw[j]), floatBits(sig_sc[j]))
                << "batch " << n << " sample " << j;
            EXPECT_EQ(rgb_hw[j], rgb_sc[j]) << "batch " << n << " sample " << j;
        }
    }
}

/** All parameter gradients of @p model, concatenated. */
std::vector<float>
allGrads(NerfModel &model)
{
    std::vector<float> g;
    const auto append = [&g](std::span<const float> s) {
        g.insert(g.end(), s.begin(), s.end());
    };
    append(model.encoding().grads());
    append(model.densityNet().grads());
    append(model.colorNet().grads());
    return g;
}

/**
 * The sharded whole-model backward accumulates bit-identical gradients
 * under SIMD and forced-scalar dispatch and at every pool size: the
 * vector layer backward keeps the scalar order, and the level-parallel
 * hash-grid merge keeps each entry's shard-ascending sum order.
 */
TEST(Simd, BackwardBatchParallelBitExactAcrossDispatchAndPools)
{
    const std::size_t n = 700; // three shards with ragged tails
    std::vector<Vec3f> pos, dirs;
    randomBatch(n, 51, pos, dirs);
    Pcg32 rng(52);
    std::vector<float> dsig(n);
    std::vector<Vec3f> drgb(n);
    for (std::size_t j = 0; j < n; ++j) {
        dsig[j] = rng.nextFloat() - 0.5f;
        drgb[j] = rng.nextVec3() - Vec3f{0.5f, 0.5f, 0.5f};
    }

    std::vector<float> ref;
    for (const bool scalar : {true, false}) {
        for (const int workers : {0, 1, 3}) {
            ScopedForceScalar pin(scalar);
            ThreadPool pool(workers);
            NerfModel model(tinyModel(), 53);
            NerfParallelWorkspace ws;
            // Two calls: the second reuses the arenas and accumulates
            // onto non-zero gradients.
            for (int rep = 0; rep < 2; ++rep)
                model.backwardBatchParallel(pos, dirs, dsig, drgb, ws, &pool);
            const std::vector<float> got = allGrads(model);
            if (ref.empty()) {
                ref = got;
                continue;
            }
            ASSERT_EQ(got.size(), ref.size());
            for (std::size_t i = 0; i < got.size(); ++i)
                ASSERT_EQ(floatBits(got[i]), floatBits(ref[i]))
                    << (scalar ? "scalar" : "simd") << " workers " << workers
                    << " grad " << i;
        }
    }
}

/**
 * The packed-weight inference path is bitwise identical to an fp32
 * model whose masters hold the dequantized values: the quantized
 * forward dequantizes into the same fp32 arithmetic, it never computes
 * in reduced precision.
 */
TEST(Simd, QuantizedForwardMatchesDequantizedOracle)
{
    for (const QuantMode mode : {QuantMode::fp16, QuantMode::int8}) {
        NerfModel quant(tinyModel(), 44);
        quant.setInferenceQuant(mode, /*dropFp32=*/false);

        NerfModel oracle(tinyModel(), 44);
        const std::vector<float> enc_w = quant.encoding().dequantizedParams();
        const std::vector<float> den_w = quant.densityNet().dequantizedParams();
        const std::vector<float> col_w = quant.colorNet().dequantizedParams();
        std::copy(enc_w.begin(), enc_w.end(), oracle.encoding().params().begin());
        std::copy(den_w.begin(), den_w.end(), oracle.densityNet().params().begin());
        std::copy(col_w.begin(), col_w.end(), oracle.colorNet().params().begin());

        NerfBatchWorkspace ws_q = quant.makeBatchWorkspace();
        NerfBatchWorkspace ws_o = oracle.makeBatchWorkspace();
        const std::size_t n = 97;
        std::vector<Vec3f> pos, dirs;
        randomBatch(n, 45, pos, dirs);
        std::vector<float> sig_q(n), sig_o(n);
        std::vector<Vec3f> rgb_q(n), rgb_o(n);
        quant.forwardBatch(pos, dirs, ws_q, sig_q, rgb_q);
        oracle.forwardBatch(pos, dirs, ws_o, sig_o, rgb_o);
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_EQ(floatBits(sig_q[j]), floatBits(sig_o[j]))
                << "mode " << static_cast<int>(mode) << " sample " << j;
            EXPECT_EQ(rgb_q[j], rgb_o[j])
                << "mode " << static_cast<int>(mode) << " sample " << j;
        }
    }
}

/** Dropping the fp32 masters frees memory without changing the packed
 *  inference result, and the quantized path stays scalar-consistent. */
TEST(Simd, DropFp32WeightsKeepsQuantizedForward)
{
    NerfModel kept(tinyModel(), 46);
    kept.setInferenceQuant(QuantMode::int8, /*dropFp32=*/false);
    NerfModel dropped(tinyModel(), 46);
    dropped.setInferenceQuant(QuantMode::int8, /*dropFp32=*/true);
    EXPECT_TRUE(kept.encoding().hasFp32Weights());
    EXPECT_FALSE(dropped.encoding().hasFp32Weights());
    EXPECT_FALSE(dropped.densityNet().hasFp32Weights());

    NerfBatchWorkspace ws_k = kept.makeBatchWorkspace();
    NerfBatchWorkspace ws_d = dropped.makeBatchWorkspace();
    const std::size_t n = 70;
    std::vector<Vec3f> pos, dirs;
    randomBatch(n, 47, pos, dirs);
    std::vector<float> sig_k(n), sig_d(n);
    std::vector<Vec3f> rgb_k(n), rgb_d(n);
    kept.forwardBatch(pos, dirs, ws_k, sig_k, rgb_k);
    dropped.forwardBatch(pos, dirs, ws_d, sig_d, rgb_d);
    for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(floatBits(sig_k[j]), floatBits(sig_d[j])) << "sample " << j;
        EXPECT_EQ(rgb_k[j], rgb_d[j]) << "sample " << j;
    }

    // The quantized arms must also agree across dispatch.
    {
        ScopedForceScalar pin(true);
        std::vector<float> sig_s(n);
        std::vector<Vec3f> rgb_s(n);
        kept.forwardBatch(pos, dirs, ws_k, sig_s, rgb_s);
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_EQ(floatBits(sig_s[j]), floatBits(sig_k[j]));
            EXPECT_EQ(rgb_s[j], rgb_k[j]);
        }
    }
}

PipelineConfig
compactionPipeline(bool compaction)
{
    PipelineConfig pc;
    pc.model = tinyModel();
    pc.sampler.maxSamplesPerRay = 32;
    pc.occupancyResolution = 24;
    pc.occupancyCompaction = compaction;
    return pc;
}

/**
 * Occupancy compaction is an exact optimization: with the same grid,
 * rays, and rng stream, the compacted evaluator composites bit-identical
 * colors to the gated path, evaluates strictly fewer samples than the
 * batch carries, and the recorded tape backpropagates bit-identical
 * parameter gradients.
 */
TEST(Simd, CompactionBitIdenticalToGatedPath)
{
    NerfPipeline gated(compactionPipeline(false));
    NerfPipeline compact(compactionPipeline(true));
    ASSERT_TRUE(compact.occupancyCompaction());

    // Identical partially-occupied grids: keep a sphere around the
    // cube centre so a good fraction of candidates are prunable.
    const auto keep = [](const Vec3f &p) {
        const Vec3f d = p - Vec3f{0.5f, 0.5f, 0.5f};
        return dot(d, d) < 0.09f;
    };
    gated.grid().maskRegion(keep);
    compact.grid().maskRegion(keep);

    std::vector<Ray> rays;
    for (int i = 0; i < 8; ++i)
        rays.emplace_back(Vec3f{0.15f + 0.1f * static_cast<float>(i), 0.4f, -1.0f},
                          Vec3f{0.0f, 0.05f, 1.0f});

    Pcg32 rng_a(71), rng_b(71);
    std::vector<RayEval> ev_g(rays.size()), ev_c(rays.size());
    gated.traceRays(rays, rng_a, /*record=*/true, ev_g);
    compact.traceRays(rays, rng_b, /*record=*/true, ev_c);

    for (std::size_t r = 0; r < rays.size(); ++r) {
        EXPECT_EQ(ev_g[r].color, ev_c[r].color) << "ray " << r;
        EXPECT_EQ(ev_g[r].samples, ev_c[r].samples) << "ray " << r;
        EXPECT_EQ(floatBits(ev_g[r].transmittance),
                  floatBits(ev_c[r].transmittance))
            << "ray " << r;
        EXPECT_EQ(floatBits(ev_g[r].firstHitT), floatBits(ev_c[r].firstHitT))
            << "ray " << r;
    }

    const auto stats = compact.lastCompaction();
    EXPECT_GT(stats.batchSamples, 0u);
    EXPECT_GT(stats.mlpSamples, 0u);
    EXPECT_LT(stats.mlpSamples, stats.batchSamples);

    // Backward through both tapes accumulates identical gradients.
    std::vector<Vec3f> dcolors(rays.size(), Vec3f{0.7f, -0.3f, 0.5f});
    gated.backwardRays(dcolors);
    compact.backwardRays(dcolors);
    const auto grads = [](NerfModel &m) {
        std::vector<float> g;
        auto append = [&g](std::span<const float> s) {
            g.insert(g.end(), s.begin(), s.end());
        };
        append(m.encoding().grads());
        append(m.densityNet().grads());
        append(m.colorNet().grads());
        return g;
    };
    const std::vector<float> gg = grads(gated.model()),
                             gc = grads(compact.model());
    ASSERT_EQ(gg.size(), gc.size());
    for (std::size_t i = 0; i < gg.size(); ++i)
        EXPECT_EQ(floatBits(gg[i]), floatBits(gc[i])) << "grad " << i;
}

/**
 * A model saved with a non-fp32 inference image round-trips through
 * the v4 artifact: the loaded model carries the same QuantMode and
 * produces bit-identical forwards, because the dequantized values
 * requantize to the same packed image (the max-abs element pins the
 * recomputed scale).
 */
TEST(Simd, QuantizedSerializeRoundTripBitExact)
{
    for (const QuantMode mode : {QuantMode::fp16, QuantMode::int8}) {
        NerfModel model(tinyModel(), 48);
        model.setInferenceQuant(mode, /*dropFp32=*/false);

        const std::string path =
            testing::TempDir() + "quant_roundtrip_" +
            std::to_string(static_cast<int>(mode)) + ".f3dm";
        ASSERT_TRUE(saveModel(model, path));
        const std::unique_ptr<NerfModel> loaded = loadModel(path);
        ASSERT_NE(loaded, nullptr);
        EXPECT_EQ(loaded->inferenceQuantMode(), mode);

        NerfBatchWorkspace ws_a = model.makeBatchWorkspace();
        NerfBatchWorkspace ws_b = loaded->makeBatchWorkspace();
        const std::size_t n = 64;
        std::vector<Vec3f> pos, dirs;
        randomBatch(n, 49, pos, dirs);
        std::vector<float> sig_a(n), sig_b(n);
        std::vector<Vec3f> rgb_a(n), rgb_b(n);
        model.forwardBatch(pos, dirs, ws_a, sig_a, rgb_a);
        loaded->forwardBatch(pos, dirs, ws_b, sig_b, rgb_b);
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_EQ(floatBits(sig_a[j]), floatBits(sig_b[j]))
                << "mode " << static_cast<int>(mode) << " sample " << j;
            EXPECT_EQ(rgb_a[j], rgb_b[j])
                << "mode " << static_cast<int>(mode) << " sample " << j;
        }
        std::remove(path.c_str());
    }
}

} // namespace
} // namespace fusion3d::nerf
