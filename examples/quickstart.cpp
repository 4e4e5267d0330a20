/**
 * @file
 * Quickstart: reconstruct a procedural scene with the Instant-NGP-style
 * pipeline and render a novel view — the end-to-end workload one
 * Fusion-3D chip executes. Prints the PSNR trajectory and writes the
 * reconstruction next to the ground truth as PPM images.
 *
 * Usage: quickstart [scene] [iterations] [image_size] [--threads N]
 *
 * With --threads N the trainer shards each batch across a pool of N
 * threads (N-1 workers plus the caller); with N = 1, or with no pool at
 * all, the same shards run inline, so results are bit-identical at any
 * N (DESIGN.md §8).
 */

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "nerf/pipeline.h"
#include "nerf/trainer.h"
#include "scenes/dataset_gen.h"
#include "scenes/factory.h"

using namespace fusion3d;

int
main(int argc, char **argv)
{
    int threads = 1;
    std::vector<const char *> pos;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
            threads = std::atoi(argv[++i]);
        else
            pos.push_back(argv[i]);
    }
    if (threads < 1)
        fatal("--threads wants a positive thread count");

    const std::string scene_name = pos.size() > 0 ? pos[0] : "lego";
    const int iterations = pos.size() > 1 ? std::atoi(pos[1]) : 1000;
    const int image_size = pos.size() > 2 ? std::atoi(pos[2]) : 48;

    inform("building scene '%s'", scene_name.c_str());
    const auto scene = scenes::makeSyntheticScene(scene_name);
    inform("scene occupancy fill: %.1f%%", scene->occupiedFraction() * 100.0);

    inform("rendering ground-truth dataset (%dx%d)...", image_size, image_size);
    const nerf::Dataset dataset = scenes::makeDataset(*scene,
                                                      scenes::syntheticRig(image_size));
    inform("dataset: %zu train views, %zu test views", dataset.train.size(),
           dataset.test.size());

    nerf::PipelineConfig pc;
    pc.model.grid.levels = 8;
    pc.model.grid.log2TableSize = 14;
    pc.model.grid.baseResolution = 16;
    pc.model.grid.maxResolution = 128;
    nerf::NerfPipeline pipeline(pc);
    inform("model parameters: %zu", pipeline.paramCount());

    // threads threads total: a pool of threads-1 workers plus the
    // caller, which participates in parallelFor. --threads 1 is a
    // zero-worker pool running the shards inline, the same numeric path
    // as no pool, so every N produces the same weights.
    ThreadPool pool(threads - 1);

    nerf::TrainerConfig tc;
    tc.iterations = iterations;
    tc.raysPerBatch = 256;
    tc.evalEvery = std::max(iterations / 8, 1);
    tc.pool = &pool;
    nerf::Trainer trainer(pipeline, dataset, tc);

    inform("training for %d iterations on %d thread%s...", iterations, threads,
           threads == 1 ? "" : "s");
    const nerf::TrainResult result = trainer.run();
    for (const auto &[iter, p] : result.history)
        inform("  iter %5d  PSNR %6.2f dB", iter, p);
    inform("final PSNR: %.2f dB  (%llu rays, %llu samples, %.1f samples/ray)",
           result.finalPsnr, static_cast<unsigned long long>(result.totalRays),
           static_cast<unsigned long long>(result.totalSamples),
           result.avgSamplesPerRay());

    const Image rendered = trainer.renderView(dataset.test[0].camera);
    rendered.writePpm("quickstart_render.ppm");
    dataset.test[0].image.writePpm("quickstart_truth.ppm");
    inform("wrote quickstart_render.ppm / quickstart_truth.ppm");
    return 0;
}
