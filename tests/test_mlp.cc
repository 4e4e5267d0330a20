/** @file Gradient-checked tests of the tiny MLP and the Adam optimizer. */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nerf/adam.h"
#include "nerf/mlp.h"
#include "nerf/sh_encoding.h"

namespace fusion3d::nerf
{
namespace
{

TEST(Mlp, ShapesAndParamCount)
{
    Mlp mlp({4, 8, 3});
    EXPECT_EQ(mlp.inputDim(), 4);
    EXPECT_EQ(mlp.outputDim(), 3);
    EXPECT_EQ(mlp.layerCount(), 2);
    EXPECT_EQ(mlp.paramCount(), 4u * 8 + 8 + 8 * 3 + 3);
    EXPECT_EQ(mlp.forwardMacs(), 4u * 8 + 8 * 3);
}

TEST(Mlp, ForwardDeterministic)
{
    Mlp mlp({3, 5, 2}, 42);
    MlpWorkspace ws = mlp.makeWorkspace();
    const std::vector<float> in{0.1f, -0.2f, 0.3f};
    const auto out1 = mlp.forward(in, ws);
    const float a = out1[0], b = out1[1];
    const auto out2 = mlp.forward(in, ws);
    EXPECT_FLOAT_EQ(out2[0], a);
    EXPECT_FLOAT_EQ(out2[1], b);
}

TEST(Mlp, LinearNetworkComputesAffine)
{
    // Single layer = affine map; plant known weights.
    Mlp mlp({2, 2});
    auto p = mlp.params();
    // Weights row-major [out][in]: y0 = 1*x0 + 2*x1 + b0.
    p[0] = 1.0f;
    p[1] = 2.0f;
    p[2] = 3.0f;
    p[3] = 4.0f;
    p[4] = 0.5f;  // b0
    p[5] = -0.5f; // b1
    MlpWorkspace ws = mlp.makeWorkspace();
    const std::vector<float> in{1.0f, 1.0f};
    const auto out = mlp.forward(in, ws);
    EXPECT_FLOAT_EQ(out[0], 3.5f);
    EXPECT_FLOAT_EQ(out[1], 6.5f);
}

TEST(Mlp, ReluClampsHidden)
{
    Mlp mlp({1, 1, 1});
    auto p = mlp.params();
    p[0] = -1.0f; // hidden weight
    p[1] = 0.0f;  // hidden bias
    p[2] = 1.0f;  // output weight
    p[3] = 0.0f;  // output bias
    MlpWorkspace ws = mlp.makeWorkspace();
    const std::vector<float> pos{1.0f};
    EXPECT_FLOAT_EQ(mlp.forward(pos, ws)[0], 0.0f); // relu(-1) = 0
    const std::vector<float> neg{-1.0f};
    EXPECT_FLOAT_EQ(mlp.forward(neg, ws)[0], 1.0f); // relu(1) = 1
}

/** Property: backward() gradients match central finite differences. */
TEST(Mlp, GradientCheckWeights)
{
    Mlp mlp({5, 7, 4, 3}, 17);
    MlpWorkspace ws = mlp.makeWorkspace();
    Pcg32 rng(18);

    std::vector<float> input(5);
    for (float &v : input)
        v = rng.nextRange(-1.0f, 1.0f);
    std::vector<float> dout(3);
    for (float &v : dout)
        v = rng.nextRange(-1.0f, 1.0f);

    const auto loss = [&]() {
        const auto out = mlp.forward(input, ws);
        float acc = 0.0f;
        for (int i = 0; i < 3; ++i)
            acc += out[static_cast<std::size_t>(i)] * dout[static_cast<std::size_t>(i)];
        return acc;
    };

    mlp.zeroGrads();
    mlp.forward(input, ws);
    mlp.backward(dout, ws);

    int checked = 0;
    for (std::size_t i = 0; i < mlp.paramCount(); i += 7) {
        const float g = mlp.grads()[i];
        const float eps = 1e-3f;
        const float orig = mlp.params()[i];
        mlp.params()[i] = orig + eps;
        const float lp = loss();
        mlp.params()[i] = orig - eps;
        const float lm = loss();
        mlp.params()[i] = orig;
        EXPECT_NEAR(g, (lp - lm) / (2.0f * eps), 2e-2f) << "param " << i;
        ++checked;
    }
    EXPECT_GT(checked, 10);
}

/** Property: input gradients match finite differences. */
TEST(Mlp, GradientCheckInput)
{
    Mlp mlp({4, 6, 2}, 23);
    MlpWorkspace ws = mlp.makeWorkspace();
    Pcg32 rng(24);
    std::vector<float> input(4);
    for (float &v : input)
        v = rng.nextRange(-1.0f, 1.0f);
    const std::vector<float> dout{0.7f, -0.3f};

    mlp.zeroGrads();
    mlp.forward(input, ws);
    mlp.backward(dout, ws);
    const std::vector<float> dinput = ws.dinput;

    for (int i = 0; i < 4; ++i) {
        const float eps = 1e-3f;
        std::vector<float> in_p = input;
        in_p[static_cast<std::size_t>(i)] += eps;
        std::vector<float> in_m = input;
        in_m[static_cast<std::size_t>(i)] -= eps;
        const auto lp = [&](const std::vector<float> &in) {
            const auto out = mlp.forward(in, ws);
            return out[0] * dout[0] + out[1] * dout[1];
        };
        const float fd = (lp(in_p) - lp(in_m)) / (2.0f * eps);
        EXPECT_NEAR(dinput[static_cast<std::size_t>(i)], fd, 2e-2f);
    }
}

TEST(Mlp, GradsAccumulateAcrossSamples)
{
    Mlp mlp({2, 3, 1}, 31);
    MlpWorkspace ws = mlp.makeWorkspace();
    const std::vector<float> in{0.5f, -0.5f};
    const std::vector<float> dout{1.0f};

    mlp.zeroGrads();
    mlp.forward(in, ws);
    mlp.backward(dout, ws);
    const float g1 = mlp.grads()[0];

    mlp.forward(in, ws);
    mlp.backward(dout, ws);
    EXPECT_NEAR(mlp.grads()[0], 2.0f * g1, 1e-5f);
}

/**
 * Batched forward is bit-exact with the scalar path: per sample the
 * accumulation order (bias first, fan-in ascending) is identical, so
 * every column of the batch output equals the scalar result exactly.
 * n = 70 crosses the internal 64-sample blocking boundary.
 */
TEST(Mlp, ForwardBatchMatchesScalarBitExact)
{
    Mlp mlp({5, 9, 4}, 51);
    MlpWorkspace sws = mlp.makeWorkspace();
    MlpBatchWorkspace bws = mlp.makeBatchWorkspace();
    Pcg32 rng(52);

    const std::size_t n = 70;
    std::vector<float> input(5 * n);
    for (float &v : input)
        v = rng.nextRange(-1.0f, 1.0f);

    const auto out = mlp.forwardBatch(input, n, bws);
    ASSERT_EQ(out.size(), 4 * n);

    std::vector<float> col(5);
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < 5; ++i)
            col[i] = input[i * n + j];
        const auto ref = mlp.forward(col, sws);
        for (std::size_t o = 0; o < 4; ++o)
            EXPECT_EQ(out[o * n + j], ref[o]) << "sample " << j << " out " << o;
    }
}

/**
 * Batched backward: input gradients are bit-exact per column; weight
 * and bias gradients equal the scalar per-sample accumulation (same
 * pairwise additions, so in fact bit-exact here too — but tolerance
 * guards against future reassociation of the batch reduction).
 */
TEST(Mlp, BackwardBatchMatchesScalarAccumulation)
{
    Mlp batched({4, 6, 2}, 61);
    Mlp scalar({4, 6, 2}, 61); // identical weights (same seed)
    Pcg32 rng(62);

    const std::size_t n = 37;
    std::vector<float> input(4 * n), dout(2 * n);
    for (float &v : input)
        v = rng.nextRange(-1.0f, 1.0f);
    for (float &v : dout)
        v = rng.nextRange(-1.0f, 1.0f);

    // Scalar reference: per-sample forward/backward, grads accumulate.
    MlpWorkspace sws = scalar.makeWorkspace();
    scalar.zeroGrads();
    std::vector<float> ref_dinput(4 * n);
    std::vector<float> col(4), dcol(2);
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < 4; ++i)
            col[i] = input[i * n + j];
        for (std::size_t o = 0; o < 2; ++o)
            dcol[o] = dout[o * n + j];
        scalar.forward(col, sws);
        scalar.backward(dcol, sws);
        for (std::size_t i = 0; i < 4; ++i)
            ref_dinput[i * n + j] = sws.dinput[i];
    }

    MlpBatchWorkspace bws = batched.makeBatchWorkspace();
    batched.zeroGrads();
    batched.forwardBatch(input, n, bws);
    batched.backwardBatchInto(dout, n, bws, batched.grads());

    for (std::size_t i = 0; i < batched.paramCount(); ++i) {
        const float ref = scalar.grads()[i];
        EXPECT_NEAR(batched.grads()[i], ref, 1e-5f + 1e-4f * std::fabs(ref))
            << "param " << i;
    }
    for (std::size_t i = 0; i < 4 * n; ++i)
        EXPECT_FLOAT_EQ(bws.dinput[i], ref_dinput[i]) << "dinput " << i;
}

/** A reused batch workspace gives the same answers after growing. */
TEST(Mlp, BatchWorkspaceReuseAcrossSizes)
{
    Mlp mlp({3, 5, 2}, 71);
    MlpWorkspace sws = mlp.makeWorkspace();
    MlpBatchWorkspace bws = mlp.makeBatchWorkspace();
    Pcg32 rng(72);

    for (const std::size_t n : {std::size_t{4}, std::size_t{129}, std::size_t{1}}) {
        std::vector<float> input(3 * n);
        for (float &v : input)
            v = rng.nextRange(-1.0f, 1.0f);
        const auto out = mlp.forwardBatch(input, n, bws);
        std::vector<float> col(3);
        for (std::size_t j = 0; j < n; ++j) {
            for (std::size_t i = 0; i < 3; ++i)
                col[i] = input[i * n + j];
            const auto ref = mlp.forward(col, sws);
            for (std::size_t o = 0; o < 2; ++o)
                EXPECT_EQ(out[o * n + j], ref[o]);
        }
    }
}

TEST(Adam, ConvergesOnQuadratic)
{
    // Minimize (x-3)^2 + (y+1)^2.
    std::vector<float> params{0.0f, 0.0f};
    AdamConfig cfg;
    cfg.lr = 0.1f;
    Adam adam(2, cfg);
    for (int i = 0; i < 500; ++i) {
        const std::vector<float> grads{2.0f * (params[0] - 3.0f),
                                       2.0f * (params[1] + 1.0f)};
        adam.step(params, grads);
    }
    EXPECT_NEAR(params[0], 3.0f, 1e-2f);
    EXPECT_NEAR(params[1], -1.0f, 1e-2f);
}

TEST(Adam, SkipZeroGradLeavesParamUntouched)
{
    AdamConfig cfg;
    cfg.lr = 0.1f;
    cfg.skipZeroGrad = true;
    Adam adam(2, cfg);
    std::vector<float> params{1.0f, 1.0f};
    // First step gives param 0 momentum.
    adam.step(params, std::vector<float>{1.0f, 0.0f});
    EXPECT_NE(params[0], 1.0f);
    EXPECT_FLOAT_EQ(params[1], 1.0f);
    // With skipZeroGrad the momentum does not keep dragging param 0.
    const float after_one = params[0];
    adam.step(params, std::vector<float>{0.0f, 0.0f});
    EXPECT_FLOAT_EQ(params[0], after_one);
}

TEST(ShEncoding, Degree1IsConstant)
{
    float out[1];
    shEncode({0.0f, 0.0f, 1.0f}, 1, out);
    EXPECT_NEAR(out[0], 0.2820948f, 1e-6f);
}

TEST(ShEncoding, KnownBand1Values)
{
    float out[4];
    shEncode({0.0f, 0.0f, 1.0f}, 2, out);
    EXPECT_NEAR(out[1], 0.0f, 1e-6f);
    EXPECT_NEAR(out[2], 0.4886025f, 1e-6f);
    EXPECT_NEAR(out[3], 0.0f, 1e-6f);
}

/** Band-energy rotation invariance: sum of squares per band is
 *  direction-independent for real spherical harmonics. */
TEST(ShEncoding, BandEnergyRotationInvariant)
{
    Pcg32 rng(91);
    float ref[16];
    shEncode(rng.nextUnitVector(), 4, ref);
    const auto band_energy = [](const float *v, int band) {
        float acc = 0.0f;
        for (int m = band * band; m < (band + 1) * (band + 1); ++m)
            acc += v[m] * v[m];
        return acc;
    };
    const float e0 = band_energy(ref, 0);
    const float e1 = band_energy(ref, 1);
    const float e2 = band_energy(ref, 2);
    const float e3 = band_energy(ref, 3);
    for (int i = 0; i < 50; ++i) {
        float out[16];
        shEncode(rng.nextUnitVector(), 4, out);
        EXPECT_NEAR(band_energy(out, 0), e0, 1e-4f);
        EXPECT_NEAR(band_energy(out, 1), e1, 1e-4f);
        EXPECT_NEAR(band_energy(out, 2), e2, 1e-4f);
        EXPECT_NEAR(band_energy(out, 3), e3, 1e-4f);
    }
}

} // namespace
} // namespace fusion3d::nerf
