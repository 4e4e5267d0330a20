/**
 * @file
 * Regenerates Fig. 8: the expert-specialization visualization on the
 * tractor scene. Each pixel is colored by the expert contributing the
 * most light; the upper-row adaptivity claim (workload re-partitions
 * automatically with the chip count) is shown by sweeping 2/4/8
 * experts and reporting each expert's pixel share. Writes
 * fig8_experts_<K>.ppm maps next to the binary.
 */

#include <cstdio>
#include <vector>

#include <string>

#include "bench/bench_util.h"
#include "common/image.h"
#include "nerf/camera.h"
#include "nerf/moe.h"

using namespace fusion3d;

int
main(int argc, char **argv)
{
    const int size = argc > 1 ? std::atoi(argv[1]) : 96;
    bench::banner("Fig. 8: MoE expert specialization on the tractor scene");

    const auto scene = scenes::makeSyntheticScene("tractor");
    std::printf("scene fill: %.1f%%\n\n", scene->occupiedFraction() * 100.0);

    const Vec3f palette[8] = {{1, 0.25f, 0.25f}, {0.25f, 1, 0.25f},
                              {0.3f, 0.45f, 1},  {1, 1, 0.3f},
                              {1, 0.3f, 1},      {0.3f, 1, 1},
                              {1, 0.65f, 0.25f}, {0.75f, 0.75f, 0.75f}};

    for (int experts : {2, 4, 8}) {
        nerf::MoeConfig mc;
        mc.numExperts = experts;
        mc.expert = bench::defaultPipeline();
        mc.expert.model.grid.log2TableSize = 13;
        mc.expert.sampler.maxSamplesPerRay = 48;
        nerf::MoeNerf moe(mc);
        bench::bootstrapMoeGates(moe, *scene);

        const nerf::Camera cam = nerf::Camera::orbit({0.5f, 0.42f, 0.5f}, 1.35f,
                                                     35.0f, 22.0f, 45.0f, size, size);
        Image map(size, size);
        std::vector<std::uint64_t> dominant(static_cast<std::size_t>(experts), 0);
        std::uint64_t content_pixels = 0;
        Pcg32 rng(14, 2);
        std::vector<Ray> row(static_cast<std::size_t>(size));
        std::vector<nerf::RayEval> evals(row.size());
        for (int y = 0; y < size; ++y) {
            for (int x = 0; x < size; ++x)
                row[static_cast<std::size_t>(x)] = cam.rayForPixel(x, y);
            moe.traceRays(row, rng, /*record=*/false, evals);
            for (int x = 0; x < size; ++x) {
                int best = -1;
                float best_opacity = 0.02f;
                for (int k = 0; k < experts; ++k) {
                    const float opacity =
                        1.0f - moe.partial(k, static_cast<std::size_t>(x)).transmittance;
                    if (opacity > best_opacity) {
                        best_opacity = opacity;
                        best = k;
                    }
                }
                if (best >= 0) {
                    ++dominant[static_cast<std::size_t>(best)];
                    ++content_pixels;
                    map.at(x, y) = palette[best % 8];
                }
            }
        }
        const std::string path = "fig8_experts_" + std::to_string(experts) + ".ppm";
        map.writePpm(path);

        std::printf("%d experts -> pixel share:", experts);
        for (int k = 0; k < experts; ++k) {
            std::printf(" %5.1f%%",
                        content_pixels
                            ? 100.0 * static_cast<double>(
                                          dominant[static_cast<std::size_t>(k)]) /
                                  static_cast<double>(content_pixels)
                            : 0.0);
        }
        std::printf("   (map: %s)\n", path.c_str());
    }
    bench::rule();
    std::printf("Paper: different regions are learned by different experts, and the "
                "assignment re-balances automatically as the chip count changes.\n");
    return 0;
}
