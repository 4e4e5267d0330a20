/** @file Tests for the multiresolution hash encoding, including the two
 *  addressing properties Technique T4 depends on. */

#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nerf/hash_encoding.h"

namespace fusion3d::nerf
{
namespace
{

HashGridConfig
smallConfig()
{
    HashGridConfig cfg;
    cfg.levels = 6;
    cfg.featuresPerLevel = 2;
    cfg.log2TableSize = 12;
    cfg.baseResolution = 4;
    cfg.maxResolution = 64;
    return cfg;
}

TEST(HashGrid, ResolutionGrowthIsGeometric)
{
    HashGridEncoding enc(smallConfig());
    EXPECT_EQ(enc.resolution(0), 4);
    // Geometric growth with floor(): the top level lands within one
    // step of the configured maximum.
    EXPECT_GE(enc.resolution(5), 63);
    EXPECT_LE(enc.resolution(5), 64);
    for (int l = 1; l < 6; ++l)
        EXPECT_GT(enc.resolution(l), enc.resolution(l - 1));
}

TEST(HashGrid, DenseLevelsBelowTableSize)
{
    HashGridEncoding enc(smallConfig());
    // (4+1)^3 = 125 <= 4096: dense. 64 needs (65)^3 > 4096: hashed.
    EXPECT_TRUE(enc.isDense(0));
    EXPECT_FALSE(enc.isDense(5));
    EXPECT_EQ(enc.levelEntries(0), 125u);
    EXPECT_EQ(enc.levelEntries(5), 4096u);
}

TEST(HashGrid, DenseIndexBijective)
{
    HashGridEncoding enc(smallConfig());
    std::set<std::uint32_t> seen;
    for (int z = 0; z <= 4; ++z)
        for (int y = 0; y <= 4; ++y)
            for (int x = 0; x <= 4; ++x)
                seen.insert(enc.vertexIndex(0, {x, y, z}));
    EXPECT_EQ(seen.size(), 125u);
}

/**
 * THE Level-3 tiling property (Sec. V-B): hashed addresses of vertices
 * offset by one unit along X always have opposite parities.
 */
TEST(HashGrid, XOffsetFlipsAddressParityHashed)
{
    const std::uint32_t mask = (1u << 14) - 1;
    Pcg32 rng(77);
    for (int i = 0; i < 20000; ++i) {
        const Vec3i c{static_cast<int>(rng.nextBounded(1 << 20)),
                      static_cast<int>(rng.nextBounded(1 << 20)),
                      static_cast<int>(rng.nextBounded(1 << 20))};
        const std::uint32_t a0 = HashGridEncoding::hashCoords(c, mask);
        const std::uint32_t a1 = HashGridEncoding::hashCoords({c.x + 1, c.y, c.z}, mask);
        EXPECT_NE(a0 & 1u, a1 & 1u) << "at " << c.x << "," << c.y << "," << c.z;
    }
}

/** The same property holds for dense-level indices (stride-1 x). */
TEST(HashGrid, XOffsetFlipsAddressParityDense)
{
    HashGridEncoding enc(smallConfig());
    for (int z = 0; z < 4; ++z) {
        for (int y = 0; y < 4; ++y) {
            for (int x = 0; x < 4; ++x) {
                const std::uint32_t a0 = enc.vertexIndex(0, {x, y, z});
                const std::uint32_t a1 = enc.vertexIndex(0, {x + 1, y, z});
                EXPECT_NE(a0 & 1u, a1 & 1u);
            }
        }
    }
}

/**
 * The Level-2 property: the large Y/Z hash multipliers spread the four
 * YZ-offset pairs far apart in the table (mean distance ~ 1/4 of it).
 */
TEST(HashGrid, YzOffsetsSpreadAcrossTable)
{
    const std::uint32_t mask = (1u << 14) - 1;
    Pcg32 rng(78);
    double acc = 0.0;
    int n = 0;
    for (int i = 0; i < 5000; ++i) {
        const Vec3i c{static_cast<int>(rng.nextBounded(1 << 16)),
                      static_cast<int>(rng.nextBounded(1 << 16)),
                      static_cast<int>(rng.nextBounded(1 << 16))};
        const std::uint32_t base = HashGridEncoding::hashCoords(c, mask);
        for (int dy = 0; dy <= 1; ++dy) {
            for (int dz = 0; dz <= 1; ++dz) {
                if (dy == 0 && dz == 0)
                    continue;
                const std::uint32_t other =
                    HashGridEncoding::hashCoords({c.x, c.y + dy, c.z + dz}, mask);
                const std::uint32_t d =
                    base > other ? base - other : other - base;
                acc += d;
                ++n;
            }
        }
    }
    const double mean_frac = acc / n / static_cast<double>(mask + 1);
    // Uniformly random pairs average 1/3 of the table; anything above
    // ~1/5 demonstrates the wide spread the paper leverages.
    EXPECT_GT(mean_frac, 0.2);
}

TEST(HashGrid, EncodeAtVertexReturnsVertexFeatures)
{
    HashGridConfig cfg = smallConfig();
    cfg.levels = 1; // single dense level, resolution 4
    cfg.maxResolution = 4;
    HashGridEncoding enc(cfg);

    // Plant a known feature at vertex (2,1,3).
    const std::uint32_t idx = enc.vertexIndex(0, {2, 1, 3});
    enc.params()[idx * 2 + 0] = 0.75f;
    enc.params()[idx * 2 + 1] = -0.5f;

    std::vector<float> out(2);
    enc.encode({2.0f / 4.0f, 1.0f / 4.0f, 3.0f / 4.0f}, out);
    EXPECT_NEAR(out[0], 0.75f, 1e-3f);
    EXPECT_NEAR(out[1], -0.5f, 1e-3f);
}

TEST(HashGrid, InterpolationIsTrilinear)
{
    HashGridConfig cfg;
    cfg.levels = 1;
    cfg.featuresPerLevel = 1;
    cfg.log2TableSize = 12;
    cfg.baseResolution = 2;
    cfg.maxResolution = 2;
    HashGridEncoding enc(cfg);

    // Feature = x coordinate of the vertex: interpolation of a linear
    // field reproduces it exactly.
    for (int z = 0; z <= 2; ++z)
        for (int y = 0; y <= 2; ++y)
            for (int x = 0; x <= 2; ++x)
                enc.params()[enc.vertexIndex(0, {x, y, z})] = static_cast<float>(x);

    Pcg32 rng(5);
    std::vector<float> out(1);
    for (int i = 0; i < 200; ++i) {
        const Vec3f p = rng.nextVec3();
        enc.encode(p, out);
        EXPECT_NEAR(out[0], p.x * 2.0f, 2e-3f) << "at " << p.x;
    }
}

TEST(HashGrid, EncodeContinuity)
{
    HashGridEncoding enc(smallConfig(), 9);
    // Randomize parameters so the test is not vacuous.
    Pcg32 prng(10);
    for (float &p : enc.params())
        p = prng.nextRange(-1.0f, 1.0f);

    std::vector<float> a(enc.config().encodedDims());
    std::vector<float> b(enc.config().encodedDims());
    Pcg32 rng(11);
    for (int i = 0; i < 100; ++i) {
        const Vec3f p = clamp(rng.nextVec3(), 0.01f, 0.99f);
        enc.encode(p, a);
        enc.encode(p + Vec3f(1e-5f, 1e-5f, 1e-5f), b);
        for (int d = 0; d < enc.config().encodedDims(); ++d)
            EXPECT_NEAR(a[d], b[d], 1e-2f);
    }
}

TEST(HashGrid, BackwardMatchesFiniteDifference)
{
    HashGridConfig cfg = smallConfig();
    cfg.levels = 2;
    HashGridEncoding enc(cfg, 21);
    Pcg32 prng(22);
    for (float &p : enc.params())
        p = prng.nextRange(-1.0f, 1.0f);

    const Vec3f pos{0.37f, 0.52f, 0.81f};
    const int dims = cfg.encodedDims();
    std::vector<float> dout(dims);
    for (int d = 0; d < dims; ++d)
        dout[d] = prng.nextRange(-1.0f, 1.0f);

    enc.zeroGrads();
    enc.backward(pos, dout);

    // Check a sample of parameter gradients by central differences of
    // the scalar L = dot(encode(pos), dout).
    std::vector<float> buf(dims);
    const auto loss = [&]() {
        enc.encode(pos, buf);
        float acc = 0.0f;
        for (int d = 0; d < dims; ++d)
            acc += buf[d] * dout[d];
        return acc;
    };

    int checked = 0;
    for (std::size_t i = 0; i < enc.paramCount() && checked < 60; i += 193) {
        const float g = enc.grads()[i];
        const float eps = 1e-3f;
        const float orig = enc.params()[i];
        enc.params()[i] = orig + eps;
        const float lp = loss();
        enc.params()[i] = orig - eps;
        const float lm = loss();
        enc.params()[i] = orig;
        const float fd = (lp - lm) / (2.0f * eps);
        EXPECT_NEAR(g, fd, 5e-3f) << "param " << i;
        ++checked;
    }
    EXPECT_GE(checked, 30);
}

TEST(HashGrid, VisitorSeesEightCornersPerLevel)
{
    struct CountingVisitor : VertexVisitor
    {
        int visits = 0;
        int last_level = -1;
        int corners_in_level = 0;
        void
        visit(int level, int corner, const Vec3i &, std::uint32_t, bool) override
        {
            ++visits;
            if (level != last_level) {
                if (last_level >= 0) {
                    EXPECT_EQ(corners_in_level, 8);
                }
                last_level = level;
                corners_in_level = 0;
            }
            EXPECT_EQ(corner, corners_in_level);
            ++corners_in_level;
        }
    };

    HashGridEncoding enc(smallConfig());
    std::vector<float> out(enc.config().encodedDims());
    CountingVisitor v;
    enc.encode({0.3f, 0.4f, 0.5f}, out, &v);
    EXPECT_EQ(v.visits, 6 * 8);
}

/**
 * Level-major batched gather is bit-exact with the scalar encode: per
 * point, corners are visited and accumulated in the same order, only
 * the loop nest is transposed (levels outer, points inner).
 */
TEST(HashGrid, EncodeBatchMatchesScalarBitExact)
{
    HashGridEncoding enc(smallConfig(), 33);
    Pcg32 prng(34);
    for (float &p : enc.params())
        p = prng.nextRange(-1.0f, 1.0f);

    const std::size_t n = 19;
    const int dims = enc.config().encodedDims();
    std::vector<Vec3f> pos(n);
    Pcg32 rng(35);
    for (Vec3f &p : pos)
        p = clamp(rng.nextVec3(), 0.01f, 0.99f);

    std::vector<float> batch(static_cast<std::size_t>(dims) * n);
    enc.encodeBatch(pos, batch);

    std::vector<float> ref(static_cast<std::size_t>(dims));
    for (std::size_t j = 0; j < n; ++j) {
        enc.encode(pos[j], ref);
        for (int d = 0; d < dims; ++d)
            EXPECT_EQ(batch[static_cast<std::size_t>(d) * n + j],
                      ref[static_cast<std::size_t>(d)])
                << "point " << j << " dim " << d;
    }
}

/**
 * Batched backward scatter (backwardBatchInto a shard accumulator, then
 * mergeGradShards) accumulates the same per-parameter gradient as
 * point-at-a-time backward; tolerance only covers the level-major
 * reassociation when several points hit the same table slot.
 */
TEST(HashGrid, BackwardBatchMatchesScalarSum)
{
    HashGridConfig cfg = smallConfig();
    HashGridEncoding enc(cfg, 43);
    const std::size_t n = 13;
    const int dims = cfg.encodedDims();

    Pcg32 rng(44);
    std::vector<Vec3f> pos(n);
    for (Vec3f &p : pos)
        p = clamp(rng.nextVec3(), 0.01f, 0.99f);
    std::vector<float> dout(static_cast<std::size_t>(dims) * n);
    for (float &v : dout)
        v = rng.nextRange(-1.0f, 1.0f);

    // Scalar reference accumulation.
    enc.zeroGrads();
    std::vector<float> dcol(static_cast<std::size_t>(dims));
    for (std::size_t j = 0; j < n; ++j) {
        for (int d = 0; d < dims; ++d)
            dcol[static_cast<std::size_t>(d)] =
                dout[static_cast<std::size_t>(d) * n + j];
        enc.backward(pos[j], dcol);
    }
    std::vector<float> ref(enc.grads().begin(), enc.grads().end());

    enc.zeroGrads();
    HashGradAccumulator acc;
    enc.backwardBatchInto(pos, dout, acc);
    HashGradAccumulator *const shards[] = {&acc};
    enc.mergeGradShards(shards);
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_NEAR(enc.grads()[i], ref[i], 1e-5f + 1e-4f * std::fabs(ref[i]))
            << "param " << i;
}

/**
 * The batched gather keeps each point's 8-corner group contiguous and
 * in corner order, with levels non-decreasing across the whole batch —
 * the access pattern the Stage-II chip model (InterpModule) assumes
 * when flushing independent corner groups.
 */
TEST(HashGrid, BatchVisitorGroupsEightCorners)
{
    struct GroupVisitor : VertexVisitor
    {
        int visits = 0;
        int last_level = 0;
        bool corners_ordered = true;
        bool levels_monotone = true;
        void
        visit(int level, int corner, const Vec3i &, std::uint32_t, bool) override
        {
            if (corner != visits % 8)
                corners_ordered = false;
            if (visits % 8 == 0 && level < last_level)
                levels_monotone = false;
            last_level = level;
            ++visits;
        }
    };

    HashGridEncoding enc(smallConfig());
    const std::size_t n = 5;
    std::vector<Vec3f> pos(n);
    Pcg32 rng(55);
    for (Vec3f &p : pos)
        p = clamp(rng.nextVec3(), 0.01f, 0.99f);
    std::vector<float> out(static_cast<std::size_t>(enc.config().encodedDims()) * n);

    GroupVisitor v;
    enc.encodeBatch(pos, out, &v);
    EXPECT_EQ(v.visits, 6 * 8 * static_cast<int>(n));
    EXPECT_TRUE(v.corners_ordered);
    EXPECT_TRUE(v.levels_monotone);
}

TEST(HashGrid, ParamBytesAccounting)
{
    HashGridEncoding enc(smallConfig());
    EXPECT_EQ(enc.paramBytes(2), enc.paramCount() * 2);
    EXPECT_EQ(enc.paramBytes(4), enc.paramCount() * 4);
}

} // namespace
} // namespace fusion3d::nerf
