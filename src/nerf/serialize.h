/**
 * @file
 * The .f3dm model artifact: the deployment payload the paper streams
 * over its bandwidth-constrained edge link. One little-endian layout
 * serves every backend — a prefix, then one section:
 *
 *   version | prefix after "F3DM", u32 version | written for
 *   --------|----------------------------------|----------------------
 *   2       | (none)                           | fp32 hash grid
 *   3       | u32 BackendKind                  | FreqNeRF, TensoRF
 *   4       | u32 BackendKind, u32 QuantMode   | fp16/int8 hash grid
 *
 *   section: the config's i32/f32 dimension words, a CRC-32 of the
 *   payload, one u64 count per parameter block, the float32 blocks.
 *
 * v2 is the historical 72-byte header (CRC at byte 44), so every build
 * still reads what this one writes for an fp32 hash grid. v4 stores a
 * quantized image dequantized; loading requantizes it bit-identically.
 * A v3 file tagging a hash grid, a v4 file tagging anything else, or
 * an unknown tag is LoadStatus::badBackend.
 *
 * The loader opens the file once ("nerf.load.open" fires once per
 * load) and validates before it allocates: the dimensions must pass
 * the backend's sanity bounds, the stored counts must equal the counts
 * the dimensions imply, and the file must hold that many payload
 * bytes — all before the model is built.
 *
 * saveFieldAtomic() writes "<path>.tmp", fsyncs, then renames over
 * the destination, so a crash mid-write (the "trainer.ckpt.write"
 * fault point writes the header and half of the first block) can
 * orphan a temp file but never leave a partial artifact at the path.
 */

#ifndef FUSION3D_NERF_SERIALIZE_H_
#define FUSION3D_NERF_SERIALIZE_H_

#include <memory>
#include <string>

#include "nerf/field.h"
#include "nerf/nerf_model.h"

namespace fusion3d::nerf
{

/** Serialize @p model to @p path. @return true on success. */
bool saveModel(const NerfModel &model, const std::string &path);

/**
 * Crash-safe save: write to "<path>.tmp", flush + fsync, then atomically
 * rename onto @p path. On any failure (including an injected crash via
 * the "trainer.ckpt.write" fault point) the destination is untouched:
 * it either keeps its previous complete artifact or stays absent.
 * @return true when @p path holds the new artifact.
 */
bool saveModelAtomic(const NerfModel &model, const std::string &path);

/** Why a load failed (LoadStatus::ok means it did not). */
enum class LoadStatus
{
    ok,
    /** The file could not be opened. */
    ioError,
    /** The magic bytes are not "F3DM". */
    badMagic,
    /** The format version is not one this build reads. */
    badVersion,
    /** The header is self-inconsistent (bad dimensions, or stored
     *  parameter counts that do not match the declared architecture). */
    headerMismatch,
    /** The file ends before the parameter blocks do. */
    truncated,
    /** The parameter payload does not match the header's CRC32. */
    badChecksum,
    /** The backend tag is unknown or does not fit the version. */
    badBackend,
};

/** Human-readable name of @p status. */
const char *loadStatusName(LoadStatus status);

/** Outcome of loadModelVerbose(): a model, or a diagnosable failure. */
struct LoadResult
{
    std::unique_ptr<NerfModel> model;
    LoadStatus status = LoadStatus::ioError;
    /** One-line diagnosis, empty on success. */
    std::string message;

    explicit operator bool() const { return status == LoadStatus::ok; }
};

/**
 * Load a model saved by saveModel(), reporting *why* a failure
 * happened — I/O error, bad magic, unsupported version, inconsistent
 * header, or a truncated parameter payload. A FreqNeRF or TensoRF
 * artifact is LoadStatus::badVersion here; loadFieldVerbose() reads it.
 */
LoadResult loadModelVerbose(const std::string &path);

/**
 * Load a model saved by saveModel().
 * @return nullptr on any failure (the reason is logged via warn();
 *         use loadModelVerbose() to inspect it programmatically).
 */
std::unique_ptr<NerfModel> loadModel(const std::string &path);

/**
 * Copy all parameters of @p src into @p dst (encoding and both MLPs).
 * The serving ModelRegistry and the deployment example use this to
 * install deserialized weights into a live pipeline.
 * @return false (and copy nothing) if any parameter-block size differs.
 */
bool loadInto(NerfModel &dst, const NerfModel &src);

/** Size of @p model's artifact, with its parameters at the given
 *  width (the saved file's size at the default width of 4). */
std::size_t modelFootprintBytes(const NerfModel &model, int bytes_per_param = 4);

/** Serialize @p field to @p path (version chosen per the table
 *  above). @return true on success. */
bool saveField(const ServeableField &field, const std::string &path);

/** Crash-safe saveField(): temp file + fsync + atomic rename, like
 *  saveModelAtomic(). @return true when @p path holds the artifact. */
bool saveFieldAtomic(const ServeableField &field, const std::string &path);

/** Outcome of loadFieldVerbose(): a field, or a diagnosable failure. */
struct FieldLoadResult
{
    std::unique_ptr<ServeableField> field;
    LoadStatus status = LoadStatus::ioError;
    /** One-line diagnosis, empty on success. */
    std::string message;

    explicit operator bool() const { return status == LoadStatus::ok; }
};

/** Load any .f3dm artifact as a ServeableField of its tagged backend
 *  (v2 and v4 files are hash-grid fields). */
FieldLoadResult loadFieldVerbose(const std::string &path);

/**
 * Load any .f3dm artifact as a ServeableField.
 * @return nullptr on any failure (the reason is logged via warn();
 *         use loadFieldVerbose() to inspect it programmatically).
 */
std::unique_ptr<ServeableField> loadField(const std::string &path);

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_SERIALIZE_H_
