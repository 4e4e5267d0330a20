/** @file Robustness tests of the .f3dm model artifact reader/writer:
 *  round-trip equality, clean diagnosable failures on truncated,
 *  magic-corrupted, wrong-version, and checksum-corrupted files
 *  (truncation probed at every section boundary), oversized headers
 *  rejected before allocation, injected I/O faults, the crash-safety
 *  of the atomic checkpoint writer for every backend, and a seeded
 *  mutation sweep over artifacts of every kind. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/fault.h"
#include "nerf/field.h"
#include "nerf/freq_nerf.h"
#include "nerf/nerf_model.h"
#include "nerf/serialize.h"
#include "nerf/tensorf.h"

namespace fusion3d::nerf
{
namespace
{

NerfModelConfig
tinyConfig()
{
    NerfModelConfig cfg;
    cfg.grid.levels = 4;
    cfg.grid.featuresPerLevel = 2;
    cfg.grid.log2TableSize = 9;
    cfg.grid.baseResolution = 4;
    cfg.grid.maxResolution = 32;
    cfg.geoFeatures = 7;
    cfg.densityHidden = 16;
    cfg.colorHidden = 16;
    cfg.shDegree = 2;
    return cfg;
}

std::string
tmpPath(const char *name)
{
    return testing::TempDir() + name;
}

std::vector<unsigned char>
readAll(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::vector<unsigned char> bytes;
    unsigned char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

void
writeAll(const std::string &path, const std::vector<unsigned char> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
}

void
expectSpansEqual(std::span<const float> a, std::span<const float> b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "param " << i;
}

TEST(Serialize, RoundTripIsBitExact)
{
    const NerfModel model(tinyConfig(), /*seed=*/99);
    const std::string path = tmpPath("roundtrip.f3dm");
    ASSERT_TRUE(saveModel(model, path));

    const LoadResult r = loadModelVerbose(path);
    ASSERT_TRUE(static_cast<bool>(r)) << r.message;
    EXPECT_EQ(r.status, LoadStatus::ok);
    ASSERT_NE(r.model, nullptr);
    expectSpansEqual(model.encoding().params(), r.model->encoding().params());
    expectSpansEqual(model.densityNet().params(), r.model->densityNet().params());
    expectSpansEqual(model.colorNet().params(), r.model->colorNet().params());
}

TEST(Serialize, MissingFileIsIoError)
{
    const LoadResult r = loadModelVerbose(tmpPath("does_not_exist.f3dm"));
    EXPECT_EQ(r.status, LoadStatus::ioError);
    EXPECT_EQ(r.model, nullptr);
    EXPECT_FALSE(r.message.empty());
    EXPECT_EQ(loadModel(tmpPath("does_not_exist.f3dm")), nullptr);
}

TEST(Serialize, CorruptedMagicIsDiagnosed)
{
    const NerfModel model(tinyConfig());
    const std::string path = tmpPath("badmagic.f3dm");
    ASSERT_TRUE(saveModel(model, path));

    std::vector<unsigned char> bytes = readAll(path);
    bytes[0] = 'X';
    writeAll(path, bytes);

    const LoadResult r = loadModelVerbose(path);
    EXPECT_EQ(r.status, LoadStatus::badMagic);
    EXPECT_EQ(r.model, nullptr);
}

TEST(Serialize, WrongVersionIsDiagnosed)
{
    const NerfModel model(tinyConfig());
    const std::string path = tmpPath("badversion.f3dm");
    ASSERT_TRUE(saveModel(model, path));

    // The u32 format version sits directly after the 4 magic bytes.
    std::vector<unsigned char> bytes = readAll(path);
    bytes[4] = 0xfe;
    bytes[5] = 0xff;
    writeAll(path, bytes);

    const LoadResult r = loadModelVerbose(path);
    EXPECT_EQ(r.status, LoadStatus::badVersion);
    EXPECT_EQ(r.model, nullptr);
}

TEST(Serialize, TruncatedPayloadIsDiagnosed)
{
    const NerfModel model(tinyConfig());
    const std::string path = tmpPath("truncated.f3dm");
    ASSERT_TRUE(saveModel(model, path));

    std::vector<unsigned char> bytes = readAll(path);
    ASSERT_GT(bytes.size(), 200u);
    bytes.resize(bytes.size() / 2); // header intact, payload cut short
    writeAll(path, bytes);

    const LoadResult r = loadModelVerbose(path);
    EXPECT_EQ(r.status, LoadStatus::truncated);
    EXPECT_EQ(r.model, nullptr);
}

TEST(Serialize, TruncatedHeaderIsDiagnosed)
{
    const NerfModel model(tinyConfig());
    const std::string path = tmpPath("shortheader.f3dm");
    ASSERT_TRUE(saveModel(model, path));

    std::vector<unsigned char> bytes = readAll(path);
    bytes.resize(10); // shorter than the header itself
    writeAll(path, bytes);

    const LoadResult r = loadModelVerbose(path);
    EXPECT_EQ(r.status, LoadStatus::truncated);
    EXPECT_EQ(r.model, nullptr);
}

TEST(Serialize, InsaneHeaderDimensionsAreRejected)
{
    const NerfModel model(tinyConfig());
    const std::string path = tmpPath("badheader.f3dm");
    ASSERT_TRUE(saveModel(model, path));

    // Stomp the levels field (first i32 after magic+version) with a
    // value saveModel could never have written.
    std::vector<unsigned char> bytes = readAll(path);
    bytes[8] = 0xff;
    bytes[9] = 0xff;
    bytes[10] = 0xff;
    bytes[11] = 0x7f;
    writeAll(path, bytes);

    const LoadResult r = loadModelVerbose(path);
    EXPECT_EQ(r.status, LoadStatus::headerMismatch);
    EXPECT_EQ(r.model, nullptr);
}

TEST(Serialize, LoadStatusNamesAreStable)
{
    EXPECT_STREQ(loadStatusName(LoadStatus::ok), "ok");
    EXPECT_STREQ(loadStatusName(LoadStatus::badMagic), "bad magic");
    EXPECT_STREQ(loadStatusName(LoadStatus::truncated), "truncated");
    EXPECT_STREQ(loadStatusName(LoadStatus::badChecksum), "checksum mismatch");
}

TEST(Serialize, TruncationAtEverySectionBoundaryIsDiagnosed)
{
    const NerfModel model(tinyConfig());
    const std::string path = tmpPath("boundaries.f3dm");
    ASSERT_TRUE(saveModel(model, path));
    const std::vector<unsigned char> whole = readAll(path);

    // Section boundaries of the v2 layout: empty file, mid-header,
    // header only, header + encoding block, header + encoding +
    // density block. Every cut must read as `truncated`, never crash.
    const std::size_t header = 72; // sizeof the on-disk header
    const std::size_t enc =
        model.encoding().params().size() * sizeof(float);
    const std::size_t dens =
        model.densityNet().params().size() * sizeof(float);
    const std::size_t cuts[] = {0, 10, header, header + enc,
                                header + enc + dens};
    for (const std::size_t cut : cuts) {
        SCOPED_TRACE(cut);
        ASSERT_LT(cut, whole.size());
        std::vector<unsigned char> bytes = whole;
        bytes.resize(cut);
        writeAll(path, bytes);
        const LoadResult r = loadModelVerbose(path);
        EXPECT_EQ(r.status, LoadStatus::truncated);
        EXPECT_EQ(r.model, nullptr);
    }
}

TEST(Serialize, PayloadCorruptionFailsChecksum)
{
    const NerfModel model(tinyConfig(), /*seed=*/11);
    const std::string path = tmpPath("bitflip.f3dm");
    ASSERT_TRUE(saveModel(model, path));

    // Flip one bit in the last payload byte: header and sizes are
    // intact, so only the CRC can catch it.
    std::vector<unsigned char> bytes = readAll(path);
    bytes.back() ^= 0x01;
    writeAll(path, bytes);

    const LoadResult r = loadModelVerbose(path);
    EXPECT_EQ(r.status, LoadStatus::badChecksum);
    EXPECT_EQ(r.model, nullptr);
    EXPECT_FALSE(r.message.empty());
}

TEST(Serialize, CrcFieldCorruptionFailsChecksum)
{
    const NerfModel model(tinyConfig(), /*seed=*/12);
    const std::string path = tmpPath("badcrc.f3dm");
    ASSERT_TRUE(saveModel(model, path));

    // The u32 paramCrc sits after the nine i32 dimension fields
    // (offset 4 + 4 + 9*4 = 44).
    std::vector<unsigned char> bytes = readAll(path);
    bytes[44] ^= 0xff;
    writeAll(path, bytes);

    EXPECT_EQ(loadModelVerbose(path).status, LoadStatus::badChecksum);
}

/** Injected-fault serialize tests leave the injector disarmed. */
class SerializeFaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }
};

TEST_F(SerializeFaultTest, InjectedLoadFaultsMapToTheirStatuses)
{
    const NerfModel model(tinyConfig(), /*seed=*/13);
    const std::string path = tmpPath("loadfaults.f3dm");
    ASSERT_TRUE(saveModel(model, path));

    ASSERT_TRUE(
        FaultInjector::instance().configureFromSpec("nerf.load.open=once"));
    EXPECT_EQ(loadModelVerbose(path).status, LoadStatus::ioError);

    ASSERT_TRUE(
        FaultInjector::instance().configureFromSpec("nerf.load.read=once"));
    EXPECT_EQ(loadModelVerbose(path).status, LoadStatus::truncated);

    ASSERT_TRUE(
        FaultInjector::instance().configureFromSpec("nerf.load.crc=once"));
    EXPECT_EQ(loadModelVerbose(path).status, LoadStatus::badChecksum);

    // Each was a one-shot: the same artifact now loads clean, armed
    // or not.
    EXPECT_EQ(loadModelVerbose(path).status, LoadStatus::ok);
    FaultInjector::instance().reset();
    EXPECT_EQ(loadModelVerbose(path).status, LoadStatus::ok);
}

TEST_F(SerializeFaultTest, InjectedLoadIntoFaultLeavesDstUntouched)
{
    const NerfModel src(tinyConfig(), /*seed=*/14);
    NerfModel dst(tinyConfig(), /*seed=*/15);
    const float before = dst.encoding().params()[0];

    ASSERT_TRUE(
        FaultInjector::instance().configureFromSpec("nerf.loadinto=once"));
    EXPECT_FALSE(loadInto(dst, src));
    EXPECT_EQ(dst.encoding().params()[0], before);
    EXPECT_TRUE(loadInto(dst, src)); // one-shot: the retry works
}

TEST_F(SerializeFaultTest, InjectedSaveWriteFaultFailsCleanly)
{
    const NerfModel model(tinyConfig(), /*seed=*/16);
    const std::string path = tmpPath("savefault.f3dm");

    ASSERT_TRUE(
        FaultInjector::instance().configureFromSpec("nerf.save.write=once"));
    EXPECT_FALSE(saveModel(model, path));
    FaultInjector::instance().reset();
    EXPECT_TRUE(saveModel(model, path));
    EXPECT_EQ(loadModelVerbose(path).status, LoadStatus::ok);
}

TEST_F(SerializeFaultTest, AtomicSaveRoundTripsAndLeavesNoTempFile)
{
    const NerfModel model(tinyConfig(), /*seed=*/17);
    const std::string path = tmpPath("atomic.f3dm");
    ASSERT_TRUE(saveModelAtomic(model, path));

    const LoadResult r = loadModelVerbose(path);
    ASSERT_EQ(r.status, LoadStatus::ok);
    expectSpansEqual(model.encoding().params(), r.model->encoding().params());

    // No temp debris after a clean save.
    std::FILE *tmp = std::fopen((path + ".tmp").c_str(), "rb");
    EXPECT_EQ(tmp, nullptr);
    if (tmp)
        std::fclose(tmp);
}

TEST_F(SerializeFaultTest, CrashDuringCheckpointNeverYieldsALoadableFile)
{
    // First checkpoint lands; a crash during the second must leave the
    // destination exactly as the first wrote it, and whatever partial
    // temp file the crash left must never load.
    const NerfModel good(tinyConfig(), /*seed=*/18);
    const std::string path = tmpPath("crashsafe.f3dm");
    ASSERT_TRUE(saveModelAtomic(good, path));

    const NerfModel newer(tinyConfig(), /*seed=*/19);
    ASSERT_TRUE(
        FaultInjector::instance().configureFromSpec("trainer.ckpt.write=once"));
    EXPECT_FALSE(saveModelAtomic(newer, path));

    // Destination: still the *first* model, bit-exact.
    const LoadResult r = loadModelVerbose(path);
    ASSERT_EQ(r.status, LoadStatus::ok) << r.message;
    expectSpansEqual(good.encoding().params(), r.model->encoding().params());
    expectSpansEqual(good.densityNet().params(), r.model->densityNet().params());
    expectSpansEqual(good.colorNet().params(), r.model->colorNet().params());

    // The simulated crash cut the temp file mid-payload: loading it
    // diagnoses truncation instead of accepting half a model.
    EXPECT_EQ(loadModelVerbose(path + ".tmp").status, LoadStatus::truncated);

    // An injected open failure also leaves the destination intact.
    ASSERT_TRUE(
        FaultInjector::instance().configureFromSpec("trainer.ckpt.open=once"));
    EXPECT_FALSE(saveModelAtomic(newer, path));
    EXPECT_EQ(loadModelVerbose(path).status, LoadStatus::ok);
}

// ---------------------------------------------------------------------------
// Backend-polymorphic v3 container + v2 compatibility.
// ---------------------------------------------------------------------------

FreqNerfConfig
tinyFreqConfig()
{
    FreqNerfConfig cfg;
    cfg.posFrequencies = 4;
    cfg.hidden = 24;
    cfg.trunkLayers = 2;
    cfg.geoFeatures = 7;
    cfg.colorHidden = 16;
    return cfg;
}

TensorfModelConfig
tinyTensorfConfig()
{
    TensorfModelConfig cfg;
    cfg.densityRank = 6;
    cfg.appearanceRank = 8;
    cfg.lineResolution = 48;
    cfg.appearanceDim = 8;
    cfg.colorHidden = 16;
    return cfg;
}

/** The two fields evaluate bit-identically on a random batch — the
 *  round-trip equality check that matters to the serve layer. */
void
expectFieldsEvalIdentical(const ServeableField &a, const ServeableField &b)
{
    const std::size_t n = 40;
    Pcg32 rng(404);
    std::vector<Vec3f> pos(n), dirs(n);
    for (std::size_t j = 0; j < n; ++j) {
        pos[j] = clamp(rng.nextVec3(), 0.01f, 0.99f);
        dirs[j] = rng.nextUnitVector();
    }
    std::vector<float> sig_a(n), sig_b(n), den_a(n), den_b(n);
    std::vector<Vec3f> rgb_a(n), rgb_b(n);
    a.evalBatch(pos, dirs, sig_a, rgb_a);
    b.evalBatch(pos, dirs, sig_b, rgb_b);
    a.evalDensityBatch(pos, den_a);
    b.evalDensityBatch(pos, den_b);
    for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(sig_a[j], sig_b[j]) << "sample " << j;
        ASSERT_EQ(rgb_a[j], rgb_b[j]) << "sample " << j;
        ASSERT_EQ(den_a[j], den_b[j]) << "sample " << j;
    }
}

TEST(SerializeV3, V2ByteStreamStillLoadsAsHashGrid)
{
    // Golden-format guard: the v2 writer's output starts with the
    // frozen magic + version prefix, and the polymorphic loader maps it
    // to a hash-grid field bit-exactly (v2 artifacts written by older
    // builds keep loading unchanged).
    const NerfModel model(tinyConfig(), /*seed=*/31);
    const std::string path = tmpPath("v2compat.f3dm");
    ASSERT_TRUE(saveModel(model, path));

    const std::vector<unsigned char> bytes = readAll(path);
    ASSERT_GE(bytes.size(), 8u);
    EXPECT_EQ(bytes[0], 'F');
    EXPECT_EQ(bytes[1], '3');
    EXPECT_EQ(bytes[2], 'D');
    EXPECT_EQ(bytes[3], 'M');
    EXPECT_EQ(bytes[4], 2u); // little-endian u32 version == 2
    EXPECT_EQ(bytes[5], 0u);
    EXPECT_EQ(bytes[6], 0u);
    EXPECT_EQ(bytes[7], 0u);

    const FieldLoadResult r = loadFieldVerbose(path);
    ASSERT_TRUE(static_cast<bool>(r)) << r.message;
    EXPECT_EQ(r.status, LoadStatus::ok);
    ASSERT_NE(r.field, nullptr);
    EXPECT_EQ(r.field->kind(), BackendKind::hashGrid);
    EXPECT_EQ(r.field->paramCount(), model.paramCount());
    const HashGridServeField hash_field(model);
    expectFieldsEvalIdentical(hash_field, *r.field);
}

TEST(SerializeV3, FreqRoundTripIsBitExact)
{
    const FreqNerfModel model(tinyFreqConfig(), /*seed=*/61);
    const FreqServeField field(model);
    const std::string path = tmpPath("freq_v3.f3dm");
    ASSERT_TRUE(saveField(field, path));

    const FieldLoadResult r = loadFieldVerbose(path);
    ASSERT_TRUE(static_cast<bool>(r)) << r.message;
    EXPECT_EQ(r.status, LoadStatus::ok);
    EXPECT_EQ(r.field->kind(), BackendKind::freqNerf);
    EXPECT_EQ(r.field->paramCount(), model.paramCount());
    expectFieldsEvalIdentical(field, *r.field);
}

TEST(SerializeV3, TensorfRoundTripIsBitExact)
{
    const TensorfModel model(tinyTensorfConfig(), /*seed=*/62);
    const TensorfServeField field(model);
    const std::string path = tmpPath("tensorf_v3.f3dm");
    ASSERT_TRUE(saveField(field, path));

    const FieldLoadResult r = loadFieldVerbose(path);
    ASSERT_TRUE(static_cast<bool>(r)) << r.message;
    EXPECT_EQ(r.status, LoadStatus::ok);
    EXPECT_EQ(r.field->kind(), BackendKind::tensorf);
    EXPECT_EQ(r.field->paramCount(), model.paramCount());
    expectFieldsEvalIdentical(field, *r.field);

    // Atomic save round-trips too and leaves no temp debris.
    const std::string atomic_path = tmpPath("tensorf_v3_atomic.f3dm");
    ASSERT_TRUE(saveFieldAtomic(field, atomic_path));
    EXPECT_EQ(loadFieldVerbose(atomic_path).status, LoadStatus::ok);
    std::FILE *tmp = std::fopen((atomic_path + ".tmp").c_str(), "rb");
    EXPECT_EQ(tmp, nullptr);
    if (tmp)
        std::fclose(tmp);
}

TEST(SerializeV3, UnknownOrMismatchedKindTagIsBadBackend)
{
    const TensorfModel model(tinyTensorfConfig(), /*seed=*/63);
    const TensorfServeField field(model);
    const std::string path = tmpPath("badkind.f3dm");
    ASSERT_TRUE(saveField(field, path));
    const std::vector<unsigned char> whole = readAll(path);

    // The u32 backend-kind tag sits directly after magic + version.
    std::vector<unsigned char> bytes = whole;
    bytes[8] = 0x7f; // no such backend
    writeAll(path, bytes);
    FieldLoadResult r = loadFieldVerbose(path);
    EXPECT_EQ(r.status, LoadStatus::badBackend);
    EXPECT_EQ(r.field, nullptr);
    EXPECT_FALSE(r.message.empty());

    // kind == hashGrid inside a v3 container is a tag mismatch: the
    // hash-grid payload is the v2 layout, a v3 file cannot carry it.
    bytes = whole;
    bytes[8] = 0x00;
    writeAll(path, bytes);
    EXPECT_EQ(loadFieldVerbose(path).status, LoadStatus::badBackend);

    EXPECT_STREQ(loadStatusName(LoadStatus::badBackend), "unknown backend");
}

TEST(SerializeV3, TruncatedBackendSectionsAreDiagnosed)
{
    const FreqNerfModel model(tinyFreqConfig(), /*seed=*/64);
    const FreqServeField field(model);
    const std::string path = tmpPath("v3trunc.f3dm");
    ASSERT_TRUE(saveField(field, path));
    const std::vector<unsigned char> whole = readAll(path);

    // Cuts: inside the kind tag, inside the per-backend dimension
    // header, inside the CRC/count fields, and inside the payload.
    const std::size_t cuts[] = {9, 20, 40, whole.size() / 2};
    for (const std::size_t cut : cuts) {
        SCOPED_TRACE(cut);
        ASSERT_LT(cut, whole.size());
        std::vector<unsigned char> bytes = whole;
        bytes.resize(cut);
        writeAll(path, bytes);
        const FieldLoadResult r = loadFieldVerbose(path);
        EXPECT_EQ(r.status, LoadStatus::truncated);
        EXPECT_EQ(r.field, nullptr);
    }
}

TEST(SerializeV3, PayloadCorruptionFailsChecksum)
{
    const TensorfModel model(tinyTensorfConfig(), /*seed=*/65);
    const TensorfServeField field(model);
    const std::string path = tmpPath("v3bitflip.f3dm");
    ASSERT_TRUE(saveField(field, path));

    // Flip one bit in the last payload byte: sizes stay plausible, so
    // only the section CRC can catch it — proving the CRC covers the
    // new per-backend sections.
    std::vector<unsigned char> bytes = readAll(path);
    bytes.back() ^= 0x01;
    writeAll(path, bytes);

    const FieldLoadResult r = loadFieldVerbose(path);
    EXPECT_EQ(r.status, LoadStatus::badChecksum);
    EXPECT_EQ(r.field, nullptr);
    EXPECT_FALSE(r.message.empty());
}

TEST(SerializeV3, InsaneBackendDimensionsAreRejected)
{
    const FreqNerfModel model(tinyFreqConfig(), /*seed=*/66);
    const FreqServeField field(model);
    const std::string path = tmpPath("v3baddims.f3dm");
    ASSERT_TRUE(saveField(field, path));

    // Stomp the first dimension field (directly after the kind tag)
    // with a value the writer could never produce.
    std::vector<unsigned char> bytes = readAll(path);
    bytes[12] = 0xff;
    bytes[13] = 0xff;
    bytes[14] = 0xff;
    bytes[15] = 0x7f;
    writeAll(path, bytes);
    EXPECT_EQ(loadFieldVerbose(path).status, LoadStatus::headerMismatch);
}

TEST(LoadInto, CopiesAllParameterBlocks)
{
    const NerfModel src(tinyConfig(), /*seed=*/7);
    NerfModel dst(tinyConfig(), /*seed=*/8);
    ASSERT_NE(src.encoding().params()[0], dst.encoding().params()[0]);

    ASSERT_TRUE(loadInto(dst, src));
    expectSpansEqual(src.encoding().params(), dst.encoding().params());
    expectSpansEqual(src.densityNet().params(), dst.densityNet().params());
    expectSpansEqual(src.colorNet().params(), dst.colorNet().params());
}

TEST(LoadInto, RejectsMismatchedArchitectures)
{
    const NerfModel src(tinyConfig());
    NerfModelConfig other = tinyConfig();
    other.densityHidden = 24;
    NerfModel dst(other, /*seed=*/3);
    const float before = dst.densityNet().params()[0];

    EXPECT_FALSE(loadInto(dst, src));
    EXPECT_EQ(dst.densityNet().params()[0], before); // nothing copied
}

// ---------------------------------------------------------------------------
// Validation before allocation, one open check per load, crash safety and
// footprint for every backend, and a seeded mutation sweep of the loader.
// ---------------------------------------------------------------------------

/** Little-endian byte image of a hand-crafted artifact. */
struct Bytes
{
    std::vector<unsigned char> data;

    template <class T>
    Bytes &
    put(T v)
    {
        const auto *p = reinterpret_cast<const unsigned char *>(&v);
        data.insert(data.end(), p, p + sizeof(v));
        return *this;
    }
};

/** Parameter count of an Mlp with these layer sizes: the per-layer
 *  weights plus biases the file format stores for it. */
std::uint64_t
mlpParams(const std::vector<int> &sizes)
{
    std::uint64_t n = 0;
    for (std::size_t l = 0; l + 1 < sizes.size(); ++l)
        n += (static_cast<std::uint64_t>(sizes[l]) + 1) * sizes[l + 1];
    return n;
}

TEST(SerializeValidation, HashGridFeaturesAboveEightAreHeaderMismatch)
{
    // HashGridEncoding supports 1..8 features per level; a header
    // declaring more must be rejected, not handed to its constructor.
    const NerfModel model(tinyConfig());
    const std::string path = tmpPath("features9.f3dm");
    ASSERT_TRUE(saveModel(model, path));
    const std::vector<unsigned char> whole = readAll(path);
    for (std::int32_t features = 9; features <= 16; ++features) {
        SCOPED_TRACE(features);
        std::vector<unsigned char> bytes(whole.begin(), whole.begin() + 72);
        std::memcpy(&bytes[12], &features, 4); // featuresPerLevel word
        writeAll(path, bytes);
        EXPECT_EQ(loadModelVerbose(path).status, LoadStatus::headerMismatch);
        EXPECT_EQ(loadFieldVerbose(path).status, LoadStatus::headerMismatch);
    }
}

/** 72-byte v2 header of a ~512 GiB hash grid: 64 levels x 2^28
 *  entries x 8 features. A base resolution of 1024 hashes every level,
 *  so the encoding holds levels * tableSize * features floats. */
std::vector<unsigned char>
hugeHashGridHeader(std::uint64_t count_skew)
{
    const std::int32_t levels = 64, features = 8, log2_table = 28;
    const std::int32_t geo = 15, hidden = 64, sh = 4;
    const std::uint64_t enc =
        static_cast<std::uint64_t>(levels) * (1ull << log2_table) * features;
    Bytes b;
    b.put('F').put('3').put('D').put('M').put(std::uint32_t{2});
    for (const std::int32_t w : {levels, features, log2_table, 1024, 65536, geo,
                                 hidden, hidden, sh})
        b.put(w);
    b.put(std::uint32_t{0}); // CRC: never reached
    b.put(enc)
        .put(mlpParams({levels * features, hidden, 1 + geo}) + count_skew)
        .put(mlpParams({geo + sh * sh, hidden, 3}));
    return b.data;
}

TEST(SerializeValidation, OversizedHashGridHeaderIsRejectedBeforeAllocating)
{
    const std::string path = tmpPath("huge_hash.f3dm");
    writeAll(path, hugeHashGridHeader(0));
    ASSERT_EQ(readAll(path).size(), 72u);
    // Consistent counts, but no payload behind them.
    EXPECT_EQ(loadModelVerbose(path).status, LoadStatus::truncated);
    EXPECT_EQ(loadFieldVerbose(path).status, LoadStatus::truncated);
    // Counts that disagree with the declared dimensions.
    writeAll(path, hugeHashGridHeader(1));
    EXPECT_EQ(loadModelVerbose(path).status, LoadStatus::headerMismatch);
}

/** 56-byte v3 FreqNeRF header of a 16 x 4096 trunk (~1 GiB of weights
 *  before gradients and Adam moments). */
std::vector<unsigned char>
hugeFreqHeader(std::uint64_t count_skew)
{
    const std::int32_t freqs = 16, hidden = 4096, layers = 16, geo = 256, sh = 4;
    std::vector<int> trunk{3 + 3 * 2 * freqs};
    trunk.insert(trunk.end(), layers, hidden);
    trunk.push_back(1 + geo);
    Bytes b;
    b.put('F').put('3').put('D').put('M').put(std::uint32_t{3});
    b.put(static_cast<std::uint32_t>(BackendKind::freqNerf));
    for (const std::int32_t w : {freqs, hidden, layers, geo, hidden, sh})
        b.put(w);
    b.put(std::uint32_t{0});
    b.put(mlpParams(trunk)).put(mlpParams({geo + sh * sh, hidden, 3}) + count_skew);
    return b.data;
}

TEST(SerializeValidation, OversizedFreqHeaderIsRejectedBeforeAllocating)
{
    const std::string path = tmpPath("huge_freq.f3dm");
    writeAll(path, hugeFreqHeader(0));
    ASSERT_EQ(readAll(path).size(), 56u);
    EXPECT_EQ(loadFieldVerbose(path).status, LoadStatus::truncated);
    writeAll(path, hugeFreqHeader(1));
    EXPECT_EQ(loadFieldVerbose(path).status, LoadStatus::headerMismatch);
}

TEST_F(SerializeFaultTest, EachLoadChecksTheOpenFaultPointOnce)
{
    const std::string hash = tmpPath("open_hash.f3dm");
    const std::string freq = tmpPath("open_freq.f3dm");
    const std::string tensorf = tmpPath("open_tensorf.f3dm");
    ASSERT_TRUE(saveModel(NerfModel(tinyConfig(), 71), hash));
    ASSERT_TRUE(saveField(FreqServeField(FreqNerfModel(tinyFreqConfig(), 72)), freq));
    ASSERT_TRUE(saveField(
        TensorfServeField(TensorfModel(tinyTensorfConfig(), 73)), tensorf));

    // every2 fails every second check: with one check per load, loads
    // alternate between ok and an I/O error for every backend.
    for (const std::string &path : {hash, freq, tensorf}) {
        SCOPED_TRACE(path);
        ASSERT_TRUE(
            FaultInjector::instance().configureFromSpec("nerf.load.open=every2"));
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(loadFieldVerbose(path).status,
                      i % 2 == 0 ? LoadStatus::ok : LoadStatus::ioError)
                << "load " << i;
        FaultInjector::instance().reset();
    }
}

TEST_F(SerializeFaultTest, TensorfCrashDuringCheckpointNeverYieldsALoadableFile)
{
    const TensorfModel good(tinyTensorfConfig(), /*seed=*/81);
    const TensorfServeField good_field(good);
    const std::string path = tmpPath("crashsafe_tensorf.f3dm");
    ASSERT_TRUE(saveFieldAtomic(good_field, path));

    const TensorfModel newer(tinyTensorfConfig(), /*seed=*/82);
    ASSERT_TRUE(
        FaultInjector::instance().configureFromSpec("trainer.ckpt.write=once"));
    EXPECT_FALSE(saveFieldAtomic(TensorfServeField(newer), path));

    // Destination: still the *first* model, bit-exact.
    const FieldLoadResult r = loadFieldVerbose(path);
    ASSERT_EQ(r.status, LoadStatus::ok) << r.message;
    const auto &loaded = dynamic_cast<const TensorfServeField &>(*r.field);
    expectSpansEqual(good.factorParams(), loaded.model().factorParams());
    expectSpansEqual(good.colorNet().params(), loaded.model().colorNet().params());
    expectFieldsEvalIdentical(good_field, *r.field);

    // The simulated crash cut the temp file mid-payload.
    EXPECT_EQ(loadFieldVerbose(path + ".tmp").status, LoadStatus::truncated);

    ASSERT_TRUE(
        FaultInjector::instance().configureFromSpec("trainer.ckpt.open=once"));
    EXPECT_FALSE(saveFieldAtomic(TensorfServeField(newer), path));
    EXPECT_EQ(loadFieldVerbose(path).status, LoadStatus::ok);
}

TEST(SerializeFootprint, EqualsTheSavedFileSizeAtEveryQuantMode)
{
    for (const QuantMode mode : {QuantMode::fp32, QuantMode::fp16, QuantMode::int8}) {
        SCOPED_TRACE(quantModeName(mode));
        NerfModel model(tinyConfig(), /*seed=*/91);
        if (mode != QuantMode::fp32)
            model.setInferenceQuant(mode);
        const std::string path = tmpPath("footprint.f3dm");
        ASSERT_TRUE(saveModel(model, path));
        EXPECT_EQ(modelFootprintBytes(model), readAll(path).size());
    }
}

/** A seed artifact of the mutation sweep and the kind it loads as. */
struct SeedArtifact
{
    std::string name;
    BackendKind kind;
    std::vector<unsigned char> bytes;
    std::size_t headerBytes;
};

std::vector<SeedArtifact>
seedArtifacts()
{
    std::vector<SeedArtifact> seeds;
    const auto add = [&seeds](const std::string &name, const ServeableField &field) {
        const std::string path = tmpPath(("seed_" + name + ".f3dm").c_str());
        EXPECT_TRUE(saveField(field, path));
        std::vector<unsigned char> bytes = readAll(path);
        const std::size_t header = bytes.size() - field.paramCount() * sizeof(float);
        seeds.push_back({name, field.kind(), std::move(bytes), header});
    };
    for (const QuantMode mode : {QuantMode::fp32, QuantMode::fp16, QuantMode::int8}) {
        NerfModel model(tinyConfig(), /*seed=*/101);
        if (mode != QuantMode::fp32)
            model.setInferenceQuant(mode);
        add(std::string("hash_") + quantModeName(mode), HashGridServeField(model));
    }
    add("freq", FreqServeField(FreqNerfModel(tinyFreqConfig(), 102)));
    add("tensorf", TensorfServeField(TensorfModel(tinyTensorfConfig(), 103)));
    return seeds;
}

TEST(SerializeMutation, MutatedArtifactsAlwaysLoadCleanlyOrFail)
{
    const std::vector<SeedArtifact> seeds = seedArtifacts();
    ASSERT_EQ(seeds.size(), 5u);
    const std::string path = tmpPath("mutant.f3dm");
    std::vector<Vec3f> pos(16), dirs(16);
    Pcg32 batch_rng(7);
    for (std::size_t j = 0; j < pos.size(); ++j) {
        pos[j] = batch_rng.nextVec3();
        dirs[j] = batch_rng.nextUnitVector();
    }

    Pcg32 rng(0xf3d);
    int loads = 0, ok_loads = 0;
    const auto check = [&](const SeedArtifact &seed,
                           const std::vector<unsigned char> &bytes) {
        writeAll(path, bytes);
        const FieldLoadResult r = loadFieldVerbose(path);
        ++loads;
        ASSERT_LE(static_cast<int>(r.status), static_cast<int>(LoadStatus::badBackend));
        if (!r) {
            EXPECT_EQ(r.field, nullptr);
            EXPECT_FALSE(r.message.empty());
            return;
        }
        ++ok_loads;
        ASSERT_NE(r.field, nullptr);
        ASSERT_EQ(r.field->kind(), seed.kind);
        std::vector<float> sigmas(pos.size());
        std::vector<Vec3f> rgbs(pos.size());
        r.field->evalBatch(pos, dirs, sigmas, rgbs);
        r.field->evalDensityBatch(pos, sigmas);
    };

    const std::uint32_t boundary[] = {0u,          1u,          2u,
                                      0x7fffffffu, 0x80000000u, 0xffffffffu};
    for (const SeedArtifact &seed : seeds) {
        SCOPED_TRACE(seed.name);
        check(seed, seed.bytes); // the seed itself loads
        // Boundary values over every 4-byte header word.
        for (std::size_t at = 0; at + 4 <= seed.headerBytes; at += 4) {
            for (const std::uint32_t v : boundary) {
                std::vector<unsigned char> bytes = seed.bytes;
                std::memcpy(&bytes[at], &v, 4);
                check(seed, bytes);
            }
        }
        // Bit flips, half of them aimed at the header.
        for (int i = 0; i < 200; ++i) {
            std::vector<unsigned char> bytes = seed.bytes;
            const int flips = 1 + static_cast<int>(rng.nextBounded(3));
            for (int k = 0; k < flips; ++k) {
                const std::size_t range = i % 2 ? bytes.size() : seed.headerBytes;
                bytes[rng.nextBounded(static_cast<std::uint32_t>(range))] ^=
                    static_cast<unsigned char>(1u << rng.nextBounded(8));
            }
            check(seed, bytes);
        }
        // Truncations anywhere, header included.
        for (int i = 0; i < 40; ++i) {
            std::vector<unsigned char> bytes = seed.bytes;
            bytes.resize(rng.nextBounded(static_cast<std::uint32_t>(bytes.size())));
            check(seed, bytes);
        }
    }
    EXPECT_GT(ok_loads, 0);
    EXPECT_LT(ok_loads, loads);
}

} // namespace
} // namespace fusion3d::nerf
