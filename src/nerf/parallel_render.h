/**
 * @file
 * Const-correct, thread-parallel frame rendering. Unlike
 * Trainer::renderView — which routes through the mutable training tape
 * of a RadianceField — these entry points take a `const ServeableField&`
 * (any backend: hash-grid, FreqNeRF, TensoRF) plus an occupancy gate
 * and render whole frames by splitting them into row-tiles executed on
 * a ThreadPool. This is the render path the serving subsystem
 * (src/serve) uses; a bare NerfModel renders through a borrowing
 * HashGridServeField.
 *
 * Determinism: every image row re-seeds its own Pcg32 from
 * (cfg.seed, row), so the rendered frame is bit-identical regardless
 * of tiling, thread count, or execution order — and, with jitter
 * disabled, bit-identical to the single-threaded Trainer::renderView
 * of the same model/grid/camera (proved in tests/test_serve.cc).
 */

#ifndef FUSION3D_NERF_PARALLEL_RENDER_H_
#define FUSION3D_NERF_PARALLEL_RENDER_H_

#include <cstdint>
#include <span>

#include "common/image.h"
#include "common/thread_pool.h"
#include "nerf/camera.h"
#include "nerf/field.h"
#include "nerf/image_warp.h"
#include "nerf/occupancy_grid.h"
#include "nerf/renderer.h"
#include "nerf/sampler.h"

namespace fusion3d::nerf
{

/** Configuration of one tiled render. */
struct TiledRenderConfig
{
    TiledRenderConfig() { sampler.jitter = false; } // inference default

    SamplerConfig sampler;
    RenderParams render;
    /** Rows per work unit handed to the pool. */
    int rowsPerTile = 4;
    /** Base seed of the per-row jitter streams (unused when !jitter). */
    std::uint64_t seed = 0;
    /** Depth assigned to fully transparent rays (compositeDepth t_far). */
    float farDepth = 2.5f;
};

/**
 * Render @p camera's view of @p field, gated by @p grid (nullptr keeps
 * every candidate sample), as parallel row-tiles on @p pool.
 * @param pool nullptr renders single-threaded on the calling thread.
 */
Image renderImageTiled(const ServeableField &field, const OccupancyGrid *grid,
                       const Camera &camera, const TiledRenderConfig &cfg,
                       ThreadPool *pool = nullptr);

/**
 * Like renderImageTiled() but also fills the per-pixel composited
 * depth map, producing the DepthFrame the image-warp degrade path
 * (frame reuse a la MetaVRain) reprojects from.
 */
DepthFrame renderDepthFrameTiled(const ServeableField &field,
                                 const OccupancyGrid *grid, const Camera &camera,
                                 const TiledRenderConfig &cfg,
                                 ThreadPool *pool = nullptr);

/** A pixel rectangle [x0, x1) x [y0, y1) of the target image. */
struct TileRect
{
    int x0 = 0;
    int y0 = 0;
    int x1 = 0;
    int y1 = 0;

    std::uint64_t
    pixels() const
    {
        return static_cast<std::uint64_t>(x1 - x0) *
               static_cast<std::uint64_t>(y1 - y0);
    }
};

/**
 * Ray-march only @p tiles of @p camera's view, patching the results in
 * place into the full-resolution @p color image (and @p depth map when
 * non-null). Tiles run in parallel on @p pool, each as one ray batch
 * through the batched evaluation core.
 *
 * With jitter disabled (the inference default) every patched pixel is
 * bit-identical to the same pixel of a full renderImageTiled() /
 * renderDepthFrameTiled() pass, so selective re-rendering composes
 * losslessly with frame reuse. (With jitter enabled, a tile whose x0 is
 * not 0 samples its row RNG stream at a different offset than the full
 * render would — the serving layer never renders jittered.)
 *
 * @return the number of pixels rendered.
 */
std::uint64_t renderTilesInto(const ServeableField &field, const OccupancyGrid *grid,
                              const Camera &camera, const TiledRenderConfig &cfg,
                              std::span<const TileRect> tiles, ThreadPool *pool,
                              Image &color, float *depth);

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_PARALLEL_RENDER_H_
