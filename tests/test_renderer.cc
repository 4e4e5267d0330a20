/** @file Tests of volumetric compositing, forward and backward. */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nerf/renderer.h"

namespace fusion3d::nerf
{
namespace
{

TEST(Composite, EmptyRayShowsBackground)
{
    RenderParams params;
    params.background = {0.2f, 0.4f, 0.6f};
    const auto r = composite({}, {}, {}, params);
    EXPECT_EQ(r.color, params.background);
    EXPECT_FLOAT_EQ(r.transmittance, 1.0f);
    EXPECT_EQ(r.used, 0);
}

TEST(Composite, OpaqueFirstSampleDominates)
{
    RenderParams params;
    const std::vector<float> sigmas{1e5f, 1e5f};
    const std::vector<Vec3f> rgbs{{1.0f, 0.0f, 0.0f}, {0.0f, 1.0f, 0.0f}};
    const std::vector<float> dts{0.1f, 0.1f};
    const auto r = composite(sigmas, rgbs, dts, params);
    EXPECT_NEAR(r.color.x, 1.0f, 1e-4f);
    EXPECT_NEAR(r.color.y, 0.0f, 1e-4f);
    EXPECT_EQ(r.used, 1); // early termination after the opaque sample
    EXPECT_LT(r.transmittance, params.terminationThreshold);
}

TEST(Composite, ZeroDensityPassesThrough)
{
    RenderParams params;
    params.background = {1.0f, 1.0f, 1.0f};
    const std::vector<float> sigmas{0.0f, 0.0f, 0.0f};
    const std::vector<Vec3f> rgbs{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
    const std::vector<float> dts{0.1f, 0.1f, 0.1f};
    const auto r = composite(sigmas, rgbs, dts, params);
    EXPECT_EQ(r.color, params.background);
    EXPECT_FLOAT_EQ(r.transmittance, 1.0f);
}

TEST(Composite, AlphaMatchesAnalyticForm)
{
    RenderParams params;
    const float sigma = 3.0f;
    const float dt = 0.25f;
    const std::vector<float> sigmas{sigma};
    const std::vector<Vec3f> rgbs{{1.0f, 1.0f, 1.0f}};
    const std::vector<float> dts{dt};
    const auto r = composite(sigmas, rgbs, dts, params);
    const float alpha = 1.0f - std::exp(-sigma * dt);
    EXPECT_NEAR(r.color.x, alpha, 1e-6f);
    EXPECT_NEAR(r.transmittance, 1.0f - alpha, 1e-6f);
}

TEST(Composite, WeightsSumPlusTransmittanceIsOne)
{
    Pcg32 rng(3);
    RenderParams params;
    for (int trial = 0; trial < 100; ++trial) {
        const int n = 1 + static_cast<int>(rng.nextBounded(30));
        std::vector<float> sigmas, dts;
        std::vector<Vec3f> rgbs;
        for (int i = 0; i < n; ++i) {
            sigmas.push_back(rng.nextRange(0.0f, 20.0f));
            dts.push_back(rng.nextRange(0.01f, 0.05f));
            rgbs.push_back(Vec3f(1.0f)); // white -> color.x == weight sum
        }
        const auto r = composite(sigmas, rgbs, dts, params);
        EXPECT_NEAR(r.color.x + r.transmittance, 1.0f, 1e-4f);
    }
}

/** Property: backward gradients match central finite differences. */
TEST(CompositeBackward, FiniteDifferenceSigmas)
{
    Pcg32 rng(7);
    RenderParams params;
    params.background = {0.3f, 0.1f, 0.2f};
    const int n = 8;
    std::vector<float> sigmas, dts;
    std::vector<Vec3f> rgbs;
    for (int i = 0; i < n; ++i) {
        sigmas.push_back(rng.nextRange(0.5f, 8.0f));
        dts.push_back(rng.nextRange(0.02f, 0.06f));
        rgbs.push_back(rng.nextVec3());
    }
    const Vec3f dcolor{0.5f, -1.0f, 0.25f};

    const auto fwd = composite(sigmas, rgbs, dts, params);
    ASSERT_EQ(fwd.used, n); // no early termination in this setup

    std::vector<float> dsigmas(n);
    std::vector<Vec3f> drgbs(n);
    CompositeBackwardScratch scratch;
    compositeBackward(sigmas, rgbs, dts, params, fwd, dcolor, dsigmas, drgbs, scratch);

    const auto loss = [&]() {
        const auto r = composite(sigmas, rgbs, dts, params);
        return dot(r.color, dcolor);
    };
    for (int i = 0; i < n; ++i) {
        const float eps = 1e-3f;
        const float orig = sigmas[static_cast<std::size_t>(i)];
        sigmas[static_cast<std::size_t>(i)] = orig + eps;
        const float lp = loss();
        sigmas[static_cast<std::size_t>(i)] = orig - eps;
        const float lm = loss();
        sigmas[static_cast<std::size_t>(i)] = orig;
        EXPECT_NEAR(dsigmas[static_cast<std::size_t>(i)], (lp - lm) / (2 * eps), 2e-3f)
            << "sample " << i;
    }
}

TEST(CompositeBackward, FiniteDifferenceColors)
{
    Pcg32 rng(8);
    RenderParams params;
    const int n = 6;
    std::vector<float> sigmas, dts;
    std::vector<Vec3f> rgbs;
    for (int i = 0; i < n; ++i) {
        sigmas.push_back(rng.nextRange(0.5f, 10.0f));
        dts.push_back(rng.nextRange(0.02f, 0.06f));
        rgbs.push_back(rng.nextVec3());
    }
    const Vec3f dcolor{1.0f, 0.5f, -0.5f};
    const auto fwd = composite(sigmas, rgbs, dts, params);
    std::vector<float> dsigmas(n);
    std::vector<Vec3f> drgbs(n);
    CompositeBackwardScratch scratch;
    compositeBackward(sigmas, rgbs, dts, params, fwd, dcolor, dsigmas, drgbs, scratch);

    for (int i = 0; i < fwd.used; ++i) {
        for (int ch = 0; ch < 3; ++ch) {
            const float eps = 1e-3f;
            Vec3f &c = rgbs[static_cast<std::size_t>(i)];
            const float orig = c[ch];
            c.at(ch) = orig + eps;
            const float lp = dot(composite(sigmas, rgbs, dts, params).color, dcolor);
            c.at(ch) = orig - eps;
            const float lm = dot(composite(sigmas, rgbs, dts, params).color, dcolor);
            c.at(ch) = orig;
            EXPECT_NEAR(drgbs[static_cast<std::size_t>(i)][ch], (lp - lm) / (2 * eps),
                        2e-3f);
        }
    }
}

TEST(CompositeBackward, TerminatedTailGetsZeroGradient)
{
    RenderParams params;
    const std::vector<float> sigmas{1e5f, 2.0f, 3.0f};
    const std::vector<Vec3f> rgbs{{1, 1, 1}, {1, 0, 0}, {0, 1, 0}};
    const std::vector<float> dts{0.1f, 0.1f, 0.1f};
    const auto fwd = composite(sigmas, rgbs, dts, params);
    ASSERT_EQ(fwd.used, 1);
    std::vector<float> dsigmas(3, 99.0f);
    std::vector<Vec3f> drgbs(3, Vec3f(99.0f));
    CompositeBackwardScratch scratch;
    compositeBackward(sigmas, rgbs, dts, params, fwd, {1, 1, 1}, dsigmas, drgbs,
                      scratch);
    EXPECT_FLOAT_EQ(dsigmas[1], 0.0f);
    EXPECT_FLOAT_EQ(dsigmas[2], 0.0f);
    EXPECT_EQ(drgbs[2], Vec3f(0.0f));
}

} // namespace
} // namespace fusion3d::nerf
