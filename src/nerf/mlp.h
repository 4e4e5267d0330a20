/**
 * @file
 * A small fully connected network with ReLU hidden activations, exactly
 * the "tiny MLP" of the Instant-NGP pipeline that Stage III evaluates
 * per sampled point. Forward caches activations in a caller-provided
 * workspace so backward can run sample-by-sample without heap churn.
 */

#ifndef FUSION3D_NERF_MLP_H_
#define FUSION3D_NERF_MLP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/quant.h"

namespace fusion3d::nerf
{

/** Per-sample activation cache reused across forward/backward calls. */
struct MlpWorkspace
{
    /** Post-activation of every layer; [0] is the input copy. */
    std::vector<std::vector<float>> activations;
    /** Pre-activation (z) of every non-input layer. */
    std::vector<std::vector<float>> preacts;
    /** dL/d(input), filled by backward(). */
    std::vector<float> dinput;
    /** Scratch delta buffers. */
    std::vector<float> delta_a;
    std::vector<float> delta_b;
};

/**
 * Activation cache for a whole batch of N samples. All matrices are
 * stored feature-major — value of feature i for sample n lives at
 * [i * N + n] — so the GEMM inner loops stream contiguous samples while
 * each weight is loaded once and reused across the batch. Buffers grow
 * on demand and are never shrunk, so a reused workspace allocates only
 * on its largest batch.
 */
struct MlpBatchWorkspace
{
    /** Allocated batch capacity (samples). */
    std::size_t capacity = 0;
    /** Batch size of the last forwardBatch() on this workspace. */
    std::size_t count = 0;
    /** Post-activations per layer, feature-major; [0] is the input copy. */
    std::vector<std::vector<float>> activations;
    /** Pre-activations (z) per non-input layer, feature-major. */
    std::vector<std::vector<float>> preacts;
    /** dL/d(input), feature-major [inputDim][N]; sized and filled by
     *  backwardBatchInto(), empty on inference-only workspaces. */
    std::vector<float> dinput;
    /** Scratch delta matrices, [widest][N]; sized by the first
     *  backward, empty on inference-only workspaces. */
    std::vector<float> delta_a;
    std::vector<float> delta_b;
    /** Sample-major [N][lanePad(widest)] transposes of a layer's input
     *  and delta, written by the vector backward kernels; sized by the
     *  first backward, empty on inference-only workspaces. */
    std::vector<float> xt;
    std::vector<float> dt;
    /** Per-layer weight dequantization scratch of the quantized
     *  inference path (largest layer's weight count; batch-independent). */
    std::vector<float> wdequant;
};

/**
 * Fully connected network. Layer sizes include input and output, e.g.
 * {32, 64, 16} is one hidden layer of 64. Hidden layers use ReLU, the
 * output layer is linear (callers apply their own output nonlinearity
 * so its gradient can fuse with the loss).
 */
class Mlp
{
  public:
    /**
     * @param layer_sizes Sizes including input and output (>= 2 entries).
     * @param seed        Weight-init RNG seed.
     */
    explicit Mlp(std::vector<int> layer_sizes, std::uint64_t seed = 2);

    int inputDim() const { return sizes_.front(); }
    int outputDim() const { return sizes_.back(); }
    int layerCount() const { return static_cast<int>(sizes_.size()) - 1; }

    /** Allocate a workspace sized for this network. */
    MlpWorkspace makeWorkspace() const;

    /** Allocate a batch workspace with room for @p capacity samples. */
    MlpBatchWorkspace makeBatchWorkspace(std::size_t capacity = 0) const;

    /**
     * Forward one sample.
     * @param input Input vector (inputDim values).
     * @param ws    Workspace; activations cached for backward().
     * @return View of the output activation (valid until next forward).
     */
    std::span<const float> forward(std::span<const float> input, MlpWorkspace &ws) const;

    /**
     * Backward one sample; must follow a forward() on the same workspace.
     * Accumulates weight/bias gradients into the internal gradient vector
     * and leaves dL/d(input) in ws.dinput.
     * @param dout dL/d(output), outputDim values.
     */
    void backward(std::span<const float> dout, MlpWorkspace &ws);

    /**
     * Forward a batch of @p n samples as a blocked GEMM: every weight
     * row is loaded once and broadcast across the batch, the inner loop
     * runs over contiguous samples. Per sample the accumulation order
     * is identical to forward() (bias first, then fan-in ascending), so
     * each column of the result is bit-exact with the scalar path and
     * independent of the batch it rides in.
     *
     * @param input Feature-major [inputDim][n] input matrix.
     * @param n     Batch size.
     * @param ws    Batch workspace; grown as needed, cached for backward.
     * @return View of the feature-major [outputDim][n] output matrix
     *         (valid until the next forwardBatch on @p ws).
     */
    std::span<const float> forwardBatch(std::span<const float> input, std::size_t n,
                                        MlpBatchWorkspace &ws) const;

    /**
     * Backward a batch; must follow a forwardBatch() on the same
     * workspace. Weight/bias gradients accumulate the whole batch's
     * outer products (summed sample-ascending) into a caller-provided
     * gradient vector (same layout/length as grads()), leaving the
     * network state untouched; dL/d(input) is left feature-major in
     * ws.dinput. This is the shard entry point of training: each shard
     * owns a private gradient buffer, and the shard buffers are merged
     * in a fixed order afterwards, so no two threads ever write the
     * same accumulator.
     *
     * @param dout Feature-major [outputDim][n] output gradients.
     * @param n    Batch size; must equal ws.count.
     */
    void backwardBatchInto(std::span<const float> dout, std::size_t n,
                           MlpBatchWorkspace &ws, std::span<float> grads) const;

    /** Flat parameters: per layer, weights row-major [out][in] then biases. */
    std::span<float> params() { return params_; }
    std::span<const float> params() const { return params_; }
    std::span<float> grads() { return grads_; }

    void zeroGrads();
    std::size_t paramCount() const { return param_count_; }

    /** paramCount() of an Mlp built from @p layer_sizes, computed
     *  without allocating it (the constructor sizes itself this way). */
    static std::size_t paramCountFor(std::span<const int> layer_sizes);

    /** Multiply-accumulate count of one forward pass (for op accounting). */
    std::uint64_t forwardMacs() const;

    /**
     * Build the packed inference weight image for @p mode from the fp32
     * master weights (binary16 for fp16; per-layer-tensor symmetric
     * INT8 + scale for int8; biases stay fp32 in both). Afterwards
     * forwardBatch() dequantizes each layer into workspace scratch and
     * runs the same kernels, so the quantized path is bitwise identical
     * to a dequantize-then-fp32 oracle. fp32 discards any packed image
     * and restores the master-weight path. Scalar forward() and the
     * backward paths always use the fp32 master weights.
     */
    void buildQuantized(QuantMode mode);

    /** Numeric format the batched inference path reads weights in. */
    QuantMode quantMode() const { return quant_mode_; }

    /**
     * Release the fp32 master weights and gradients (the memory win of
     * a quantized serve replica). Requires a packed image (quantMode()
     * != fp32); afterwards the scalar forward() and every backward
     * entry point panic, and buildQuantized() can no longer change mode.
     */
    void dropFp32Weights();

    /** True until dropFp32Weights(). */
    bool hasFp32Weights() const { return has_fp32_; }

    /** Bytes of resident weight storage (fp32 master + packed image). */
    std::size_t residentParamBytes() const;

    /**
     * The params()-layout weight image the batched inference path
     * evaluates: a copy of params() in fp32 mode, otherwise the packed
     * image dequantized (what a dequantize-then-fp32 oracle would use).
     */
    std::vector<float> dequantizedParams() const;

  private:
    std::size_t weightOffset(int layer) const { return w_offsets_[layer]; }
    std::size_t biasOffset(int layer) const { return b_offsets_[layer]; }

    std::vector<int> sizes_;
    std::vector<std::size_t> w_offsets_;
    std::vector<std::size_t> b_offsets_;
    std::vector<float> params_;
    std::vector<float> grads_;

    /** Logical parameter count (stable across dropFp32Weights). */
    std::size_t param_count_ = 0;
    QuantMode quant_mode_ = QuantMode::fp32;
    bool has_fp32_ = true;
    /** Packed weight images (weights only, per-layer contiguous at
     *  qw_offsets_); biases stay fp32 in qbias_ at qb_offsets_. */
    std::vector<std::size_t> qw_offsets_;
    std::vector<std::size_t> qb_offsets_;
    std::vector<std::uint16_t> qw_fp16_;
    std::vector<std::int8_t> qw_int8_;
    std::vector<QuantScale> qscales_;
    std::vector<float> qbias_;
};

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_MLP_H_
