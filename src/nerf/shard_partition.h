/**
 * @file
 * The one shard partition every batched training and density path
 * splits a batch into (NerfModel's *Parallel entry points and
 * PointPipeline's sharded kernels). The partition depends only on the
 * batch size — never on thread count or pool size — so the per-shard
 * gradient buffers, and the fixed order they merge in, are the same
 * with no pool, a zero-worker pool, or any number of workers. A null
 * pool runs the same shards inline, in shard order.
 *
 * The serve fields walk their batches in kShardGrain chunks
 * (forEachChunk) through one call-local workspace, so a batch of any
 * size keeps a 256-sample working set.
 */

#ifndef FUSION3D_NERF_SHARD_PARTITION_H_
#define FUSION3D_NERF_SHARD_PARTITION_H_

#include <algorithm>
#include <cstddef>

#include "common/thread_pool.h"

namespace fusion3d::nerf
{

/** Shard size the sharded batch paths aim for (samples per shard). */
inline constexpr std::size_t kShardGrain = 256;
/** Upper bound on shards per batch (bounds arena memory). */
inline constexpr std::size_t kMaxShards = 16;

/** Number of shards a batch of @p n samples splits into (0 for n = 0). */
inline std::size_t
shardCount(std::size_t n)
{
    return std::min(kMaxShards, (n + kShardGrain - 1) / kShardGrain);
}

/** First sample of shard @p s of @p shards: shard s covers
 *  [s*n/S, (s+1)*n/S). */
inline std::size_t
shardBegin(std::size_t n, std::size_t shards, std::size_t s)
{
    return s * n / shards;
}

/**
 * Call body(s, begin, end) for every shard s of a batch of @p n
 * samples: on @p pool when it is non-null and there is more than one
 * shard, otherwise inline in shard order. Shards run concurrently, so
 * the body may write only state owned by shard s.
 */
template <class Body>
void
forEachShard(std::size_t n, ThreadPool *pool, Body &&body)
{
    const std::size_t shards = shardCount(n);
    const auto run = [&](std::size_t s) {
        body(s, shardBegin(n, shards, s), shardBegin(n, shards, s + 1));
    };
    if (pool && shards > 1) {
        pool->parallelFor(
            0, static_cast<int>(shards),
            [&](int b, int e) {
                for (int s = b; s < e; ++s)
                    run(static_cast<std::size_t>(s));
            },
            /*grain=*/1);
    } else {
        for (std::size_t s = 0; s < shards; ++s)
            run(s);
    }
}

/**
 * Call body(begin, end) for consecutive chunks [begin, end) of at most
 * kShardGrain samples covering a batch of @p n samples, in order, on
 * the calling thread. A body that reuses one workspace across chunks
 * keeps its working set at kShardGrain samples however large the batch.
 */
template <class Body>
void
forEachChunk(std::size_t n, Body &&body)
{
    for (std::size_t begin = 0; begin < n; begin += kShardGrain)
        body(begin, std::min(n, begin + kShardGrain));
}

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_SHARD_PARTITION_H_
