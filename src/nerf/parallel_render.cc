#include "nerf/parallel_render.h"

#include <vector>

#include "common/logging.h"
#include "nerf/sample_batch.h"
#include "obs/trace.h"

namespace fusion3d::nerf
{

namespace
{

/** Stream id of the per-row jitter generators. */
constexpr std::uint64_t kRowStream = 0x9e3779b97f4a7c15ULL;

/**
 * Render the pixel rectangle [x0, x1) x [y0, y1) into @p color (and
 * @p depth when non-null). The whole rect is one ray batch: Stage I
 * samples every pixel's ray into a flat SampleBatch (jitter stays
 * per-row, so tiling cannot change the streams), one
 * ServeableField::evalBatch evaluates the flattened samples through the
 * backend's batched kernels (in 256-sample chunks), and each ray
 * composites over its CSR range. Per sample the batched arithmetic
 * matches the scalar path bit for bit, so the output is still
 * bit-identical across tilings and thread counts, and to the scalar
 * reference. (A rect with x0 > 0 starts its per-row jitter stream at a
 * different offset than a full-width render — only jitterless renders
 * are sub-rect-invariant, which is the inference default.)
 */
void
renderRect(const ServeableField &field, const OccupancyGrid *grid,
           const Camera &camera, const TiledRenderConfig &cfg, int x0, int x1,
           int y0, int y1, Image &color, float *depth)
{
    F3D_TRACE_SPAN_ARG("parallel_render", "row_tile", y0);
    const RaySampler sampler(cfg.sampler);
    std::vector<RaySample> samples;
    SampleBatch batch;

    for (int y = y0; y < y1; ++y) {
        Pcg32 rng(cfg.seed + static_cast<std::uint64_t>(y), kRowStream);
        for (int x = x0; x < x1; ++x) {
            const Ray ray = camera.rayForPixel(x, y);
            sampler.sample(ray, grid, rng, samples);
            batch.appendRay(normalize(ray.dir), samples);
        }
    }

    batch.prepareOutputs();
    field.evalBatch(batch.positions, batch.dirs, batch.sigmas, batch.rgbs);

    int r = 0;
    for (int y = y0; y < y1; ++y) {
        for (int x = x0; x < x1; ++x, ++r) {
            const std::size_t begin = batch.rayBegin(r);
            const std::size_t count = batch.raySampleCount(r);
            const std::span<const float> sigmas{batch.sigmas.data() + begin, count};
            const std::span<const Vec3f> rgbs{batch.rgbs.data() + begin, count};
            const std::span<const float> dts{batch.dts.data() + begin, count};

            const CompositeResult cr = composite(sigmas, rgbs, dts, cfg.render);
            color.at(x, y) = clamp(cr.color, 0.0f, 1.0f);

            if (depth) {
                const std::span<const float> ts{batch.ts.data() + begin, count};
                depth[static_cast<std::size_t>(y) * camera.width() + x] =
                    compositeDepth(sigmas, dts, ts, cfg.render, cfg.farDepth);
            }
        }
    }
}

void
renderTiled(const ServeableField &field, const OccupancyGrid *grid,
            const Camera &camera, const TiledRenderConfig &cfg, ThreadPool *pool,
            Image &color, float *depth)
{
    const auto body = [&](int y0, int y1) {
        renderRect(field, grid, camera, cfg, 0, camera.width(), y0, y1, color,
                   depth);
    };
    if (pool) {
        pool->parallelFor(0, camera.height(), body, cfg.rowsPerTile);
    } else {
        body(0, camera.height());
    }
}

} // namespace

Image
renderImageTiled(const ServeableField &field, const OccupancyGrid *grid,
                 const Camera &camera, const TiledRenderConfig &cfg,
                 ThreadPool *pool)
{
    Image out(camera.width(), camera.height());
    renderTiled(field, grid, camera, cfg, pool, out, nullptr);
    return out;
}

DepthFrame
renderDepthFrameTiled(const ServeableField &field, const OccupancyGrid *grid,
                      const Camera &camera, const TiledRenderConfig &cfg,
                      ThreadPool *pool)
{
    DepthFrame frame;
    frame.camera = camera;
    frame.color = Image(camera.width(), camera.height());
    frame.depth.assign(
        static_cast<std::size_t>(camera.width()) * camera.height(), 0.0f);
    renderTiled(field, grid, camera, cfg, pool, frame.color, frame.depth.data());
    return frame;
}

std::uint64_t
renderTilesInto(const ServeableField &field, const OccupancyGrid *grid,
                const Camera &camera, const TiledRenderConfig &cfg,
                std::span<const TileRect> tiles, ThreadPool *pool, Image &color,
                float *depth)
{
    std::uint64_t pixels = 0;
    for (const TileRect &t : tiles) {
        if (t.x0 < 0 || t.y0 < 0 || t.x1 > camera.width() ||
            t.y1 > camera.height() || t.x0 >= t.x1 || t.y0 >= t.y1)
            fatal("renderTilesInto: tile [%d,%d)x[%d,%d) outside %dx%d image",
                  t.x0, t.x1, t.y0, t.y1, camera.width(), camera.height());
        pixels += t.pixels();
    }

    const auto body = [&](int i0, int i1) {
        for (int i = i0; i < i1; ++i) {
            const TileRect &t = tiles[static_cast<std::size_t>(i)];
            renderRect(field, grid, camera, cfg, t.x0, t.x1, t.y0, t.y1, color,
                       depth);
        }
    };
    if (pool) {
        pool->parallelFor(0, static_cast<int>(tiles.size()), body, /*grain=*/1);
    } else {
        body(0, static_cast<int>(tiles.size()));
    }
    return pixels;
}

} // namespace fusion3d::nerf
