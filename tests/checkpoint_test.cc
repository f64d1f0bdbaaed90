#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/ensemble.h"
#include "core/localizer.h"
#include "core/resnet.h"
#include "data/time_series.h"
#include "data/window.h"
#include "serve/batch_runner.h"
#include "serve/checkpoint.h"
#include "serve/service.h"
#include "serve/window_stream.h"
#include "session_timeline.h"

namespace camal {
namespace {

std::string TestPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string TestDir(const std::string& name) {
  const std::string dir = TestPath(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void WriteRawBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

std::string ReadRawBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string bytes;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.append(buffer, n);
  }
  std::fclose(f);
  return bytes;
}

// ---------------------------------------------------------------------
// CRC-32: the checksum every checkpoint read trusts before parsing.
// ---------------------------------------------------------------------

TEST(Crc32Test, KnownAnswerAndStreamingEquivalence) {
  // The classic IEEE 802.3 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);

  // Streaming over chunks must equal one shot over the concatenation.
  uint32_t crc = kCrc32Initial;
  crc = Crc32Update(crc, "1234", 4);
  crc = Crc32Update(crc, "", 0);
  crc = Crc32Update(crc, "56789", 5);
  EXPECT_EQ(Crc32Finalize(crc), 0xCBF43926u);

  // A single flipped bit changes the checksum.
  EXPECT_NE(Crc32("123456789", 9), Crc32("123456788", 9));
}

// ---------------------------------------------------------------------
// AtomicFileWriter: old-or-new, never torn.
// ---------------------------------------------------------------------

TEST(AtomicFileTest, WriteFileAtomicReplacesAndFailurePreservesOld) {
  const std::string path = TestPath("atomic_replace.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "old content", 11).ok());
  EXPECT_EQ(ReadRawBytes(path), "old content");
  ASSERT_TRUE(WriteFileAtomic(path, "new", 3).ok());
  EXPECT_EQ(ReadRawBytes(path), "new");

  // A failed write aborts the replacement: the destination keeps its
  // previous content and the temp file is cleaned up.
  FaultPlan plan;
  plan.fail_write_at = 1;
  FaultInjector faults(plan);
  Status failed = WriteFileAtomic(path, "doomed", 6, &faults);
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_EQ(ReadRawBytes(path), "new");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(faults.faults_injected(), 1);
}

TEST(AtomicFileTest, AbandonedWriterLeavesDestinationUntouched) {
  const std::string path = TestPath("atomic_abandon.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "intact", 6).ok());
  {
    AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.Write("partial", 7).ok());
    // Destroyed without Commit: simulates a crash mid-write.
  }
  EXPECT_EQ(ReadRawBytes(path), "intact");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

// ---------------------------------------------------------------------
// Checkpoint format: round trips and the crash matrix.
// ---------------------------------------------------------------------

serve::SessionSnapshot MakeSnapshot(const std::string& id, uint64_t seed,
                                    int64_t readings) {
  Rng rng(seed);
  serve::SessionSnapshot snapshot;
  snapshot.id = id;
  snapshot.appliance = "fridge";
  snapshot.max_pending_appends = 16;
  // Consistent with the window-16, stride-8 plan of the SmallRunner the
  // service tests register, so RestoreSessions accepts the record.
  snapshot.state.grid_windows = data::GridWindowCount(readings, 16, 8);
  for (int64_t i = 0; i < readings; ++i) {
    snapshot.state.series.push_back(
        static_cast<float>(rng.Uniform(0.0, 3000.0)));
    snapshot.state.prob_sum.push_back(
        static_cast<float>(rng.Uniform(0.0, 8.0)));
    snapshot.state.cover.push_back(static_cast<int32_t>(i % 7));
    snapshot.state.on_votes.push_back(static_cast<int32_t>(i % 3));
  }
  return snapshot;
}

// Float vectors compare by bits, so NaN readings (missing) match too.
void ExpectSameBits(const std::vector<float>& got,
                    const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  const size_t bytes = got.size() * sizeof(float);
  EXPECT_TRUE(bytes == 0 || std::memcmp(got.data(), want.data(), bytes) == 0);
}

void ExpectSnapshotEqual(const serve::SessionSnapshot& got,
                         const serve::SessionSnapshot& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.appliance, want.appliance);
  EXPECT_EQ(got.max_pending_appends, want.max_pending_appends);
  EXPECT_EQ(got.state.grid_windows, want.state.grid_windows);
  EXPECT_EQ(got.state.base, want.state.base);
  ExpectSameBits(got.state.series, want.state.series);
  ExpectSameBits(got.state.prob_sum, want.state.prob_sum);
  EXPECT_EQ(got.state.cover, want.state.cover);
  EXPECT_EQ(got.state.on_votes, want.state.on_votes);
}

TEST(CheckpointFormatTest, RoundTripsSessionsBitwise) {
  const std::string path = TestPath("roundtrip.ckpt");
  std::vector<serve::SessionSnapshot> sessions;
  sessions.push_back(MakeSnapshot("house-1", 11, 37));
  sessions.push_back(MakeSnapshot("house-2", 13, 0));  // empty state is legal
  sessions.push_back(MakeSnapshot("house-3", 17, 120));
  // A trimmed session: 16 live readings of a 1,000,016-reading history.
  serve::SessionSnapshot trimmed = MakeSnapshot("house-4", 19, 16);
  trimmed.state.base = 1000000;
  trimmed.state.grid_windows = data::GridWindowCount(1000016, 16, 8);
  sessions.push_back(std::move(trimmed));

  ASSERT_TRUE(serve::WriteSessionCheckpoint(path, sessions).ok());
  auto restored = serve::ReadSessionCheckpoint(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored.value().size(), sessions.size());
  for (size_t i = 0; i < sessions.size(); ++i) {
    ExpectSnapshotEqual(restored.value()[i], sessions[i]);
  }
}

TEST(CheckpointFormatTest, ZeroSessionsIsAValidSnapshot) {
  const std::string path = TestPath("empty.ckpt");
  ASSERT_TRUE(serve::WriteSessionCheckpoint(path, {}).ok());
  auto restored = serve::ReadSessionCheckpoint(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored.value().empty());
  EXPECT_EQ(std::filesystem::file_size(path),
            serve::SessionCheckpointFormat::kHeaderBytes);
}

TEST(CheckpointFormatTest, MissingFileIsAStatusNotACrash) {
  auto restored = serve::ReadSessionCheckpoint(TestPath("no_such.ckpt"));
  ASSERT_FALSE(restored.ok());
}

TEST(CheckpointFormatTest, TruncatedHeaderIsRejected) {
  const std::string path = TestPath("short_header.ckpt");
  WriteRawBytes(path, std::string(10, 'x'));
  auto restored = serve::ReadSessionCheckpoint(path);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().ToString().find("truncated"),
            std::string::npos);
}

TEST(CheckpointFormatTest, BadMagicIsRejected) {
  const std::string path = TestPath("bad_magic.ckpt");
  WriteRawBytes(path, std::string(256, 'x'));
  auto restored = serve::ReadSessionCheckpoint(path);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().ToString().find("magic"), std::string::npos);
}

TEST(CheckpointFormatTest, VersionSkewIsRejected) {
  const std::string path = TestPath("version_skew.ckpt");
  ASSERT_TRUE(
      serve::WriteSessionCheckpoint(path, {MakeSnapshot("h", 19, 8)}).ok());
  std::string bytes = ReadRawBytes(path);
  bytes[4] = static_cast<char>(
      serve::SessionCheckpointFormat::kVersion + 1);  // version field
  WriteRawBytes(path, bytes);
  auto restored = serve::ReadSessionCheckpoint(path);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().ToString().find("version"), std::string::npos);
}

TEST(CheckpointFormatTest, TornPayloadIsRejected) {
  const std::string path = TestPath("torn.ckpt");
  ASSERT_TRUE(
      serve::WriteSessionCheckpoint(path, {MakeSnapshot("h", 23, 64)}).ok());
  const std::string bytes = ReadRawBytes(path);
  ASSERT_GT(bytes.size(), serve::SessionCheckpointFormat::kHeaderBytes + 8);
  WriteRawBytes(path, bytes.substr(0, bytes.size() - 8));
  auto restored = serve::ReadSessionCheckpoint(path);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().ToString().find("torn"), std::string::npos);
}

TEST(CheckpointFormatTest, TrailingBytesAreRejected) {
  const std::string path = TestPath("trailing.ckpt");
  ASSERT_TRUE(
      serve::WriteSessionCheckpoint(path, {MakeSnapshot("h", 29, 16)}).ok());
  WriteRawBytes(path, ReadRawBytes(path) + "junk");
  ASSERT_FALSE(serve::ReadSessionCheckpoint(path).ok());
}

TEST(CheckpointFormatTest, PayloadBitFlipFailsTheCrc) {
  const std::string path = TestPath("bitflip.ckpt");
  ASSERT_TRUE(
      serve::WriteSessionCheckpoint(path, {MakeSnapshot("h", 31, 64)}).ok());
  std::string bytes = ReadRawBytes(path);
  // Flip one bit deep inside the payload.
  bytes[serve::SessionCheckpointFormat::kHeaderBytes + 40] ^= 0x10;
  WriteRawBytes(path, bytes);
  auto restored = serve::ReadSessionCheckpoint(path);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().ToString().find("CRC"), std::string::npos);
}

TEST(CheckpointFormatTest, TornCommitFaultIsCaughtOnRead) {
  // The injector tears the file AFTER the rename — the crash window
  // atomic replacement alone cannot close — and the reader must reject
  // the torn snapshot instead of trusting it.
  const std::string path = TestPath("torn_commit.ckpt");
  FaultPlan plan;
  plan.truncate_commit_at = 1;
  plan.truncate_to_bytes = 56;  // header + a sliver of payload
  FaultInjector faults(plan);
  ASSERT_TRUE(
      serve::WriteSessionCheckpoint(path, {MakeSnapshot("h", 37, 32)},
                                    &faults)
          .ok());
  ASSERT_EQ(std::filesystem::file_size(path), 56u);
  ASSERT_FALSE(serve::ReadSessionCheckpoint(path).ok());
}

TEST(CheckpointFormatTest, FailedWritePreservesThePreviousSnapshot) {
  const std::string path = TestPath("write_fault.ckpt");
  ASSERT_TRUE(
      serve::WriteSessionCheckpoint(path, {MakeSnapshot("old", 41, 12)})
          .ok());
  FaultPlan plan;
  plan.fail_write_at = 2;
  FaultInjector faults(plan);
  Status failed = serve::WriteSessionCheckpoint(
      path, {MakeSnapshot("new", 43, 12)}, &faults);
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  auto restored = serve::ReadSessionCheckpoint(path);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored.value().size(), 1u);
  EXPECT_EQ(restored.value()[0].id, "old");
}

TEST(CheckpointFormatTest, AccumulatorLengthMismatchIsRejected) {
  // A CRC-valid record whose accumulators are shorter than its series
  // would resume with committed votes silently dropped; the reader must
  // refuse it, whichever accumulator is short.
  const std::string path = TestPath("short_accumulator.ckpt");
  for (int which = 0; which < 3; ++which) {
    serve::SessionSnapshot snapshot = MakeSnapshot("h", 47, 100);
    if (which == 0) snapshot.state.prob_sum.resize(60);
    if (which == 1) snapshot.state.cover.resize(60);
    if (which == 2) snapshot.state.on_votes.resize(60);
    ASSERT_TRUE(serve::WriteSessionCheckpoint(path, {snapshot}).ok());
    auto restored = serve::ReadSessionCheckpoint(path);
    ASSERT_FALSE(restored.ok()) << "accumulator " << which;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(restored.status().ToString().find("accumulator length"),
              std::string::npos);
  }
}

TEST(CheckpointFormatTest, BaseOutOfRangeIsRejected) {
  // A CRC-valid record whose base is negative, or whose base + series
  // length passes kMaxReadings (or overflows int64), has no readings() a
  // session could safely resume from; the reader must refuse it.
  constexpr int64_t kMax = serve::SessionCheckpointFormat::kMaxReadings;
  constexpr int64_t kLowest = std::numeric_limits<int64_t>::min();
  constexpr int64_t kHighest = std::numeric_limits<int64_t>::max();
  const std::string path = TestPath("bad_base.ckpt");
  for (int64_t base : {int64_t{-1}, kLowest, kMax - 15, kHighest - 15}) {
    serve::SessionSnapshot snapshot = MakeSnapshot("h", 49, 16);
    snapshot.state.base = base;
    ASSERT_TRUE(serve::WriteSessionCheckpoint(path, {snapshot}).ok());
    auto restored = serve::ReadSessionCheckpoint(path);
    ASSERT_FALSE(restored.ok()) << "base " << base;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  }
  // The largest base in range still reads.
  serve::SessionSnapshot edge = MakeSnapshot("h", 49, 16);
  edge.state.base = kMax - 16;
  ASSERT_TRUE(serve::WriteSessionCheckpoint(path, {edge}).ok());
  auto restored = serve::ReadSessionCheckpoint(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value()[0].state.readings(), kMax);
}

TEST(CheckpointFormatTest, HugeSessionCountIsRejected) {
  // The payload CRC does not cover the header, so a corrupt session count
  // reaches the record loop; it must fail on the first missing record
  // instead of sizing an allocation from the count.
  const std::string path = TestPath("huge_count.ckpt");
  ASSERT_TRUE(serve::WriteSessionCheckpoint(path, {}).ok());
  std::string bytes = ReadRawBytes(path);
  for (size_t i = 8; i < 12; ++i) bytes[i] = '\xFF';  // session count
  WriteRawBytes(path, bytes);
  auto restored = serve::ReadSessionCheckpoint(path);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Service-level crash safety: checkpoint, kill, restore, resume.
// ---------------------------------------------------------------------

serve::WindowStreamOptions SmallStream(int64_t window, int64_t stride,
                                       int64_t batch) {
  serve::WindowStreamOptions opt;
  opt.window_length = window;
  opt.stride = stride;
  opt.batch_size = batch;
  return opt;
}

serve::BatchRunnerOptions SmallRunner(int64_t window, int64_t stride,
                                      int64_t batch, float avg_power_w) {
  serve::BatchRunnerOptions opt;
  opt.stream = SmallStream(window, stride, batch);
  opt.appliance_avg_power_w = avg_power_w;
  return opt;
}

core::CamalEnsemble RandomEnsemble(uint64_t seed) {
  Rng rng(seed);
  std::vector<core::EnsembleMember> members;
  for (int64_t k : {5, 9}) {
    core::ResNetConfig config;
    config.base_filters = 4;
    config.kernel_size = k;
    core::EnsembleMember member;
    member.model = std::make_unique<core::ResNetClassifier>(config, &rng);
    member.kernel_size = k;
    members.push_back(std::move(member));
  }
  return core::CamalEnsemble::FromMembers(std::move(members));
}

void ExpectBitwiseEqual(const serve::ScanResult& got,
                        const serve::ScanResult& want,
                        const std::string& label) {
  ASSERT_EQ(got.detection.numel(), want.detection.numel()) << label;
  for (int64_t t = 0; t < want.detection.numel(); ++t) {
    ASSERT_EQ(got.detection.at(t), want.detection.at(t))
        << label << " detection t=" << t;
    ASSERT_EQ(got.status.at(t), want.status.at(t))
        << label << " status t=" << t;
    ASSERT_EQ(got.power.at(t), want.power.at(t))
        << label << " power t=" << t;
  }
}

std::vector<float> RandomChunk(Rng* rng, int64_t count) {
  std::vector<float> chunk(static_cast<size_t>(count));
  for (auto& v : chunk) v = static_cast<float>(rng->Uniform(0.0, 3000.0));
  return chunk;
}

TEST(ServiceCheckpointTest, RestoredSessionResumesBitwiseIdentical) {
  const std::string dir = TestDir("restore_bitwise");
  core::CamalEnsemble ensemble = RandomEnsemble(81);
  Rng rng(82);
  std::vector<float> concatenated;
  SessionTimeline timeline;

  // Phase 1: stream two chunks, checkpoint, and "crash" (destroy the
  // service without a shutdown flush by checkpointing explicitly first).
  {
    serve::Service service;
    ASSERT_TRUE(service
                    .RegisterAppliance("fridge", &ensemble,
                                       SmallRunner(16, 8, 4, 600.0f))
                    .ok());
    ASSERT_TRUE(service.Start().ok());
    serve::SessionOptions session_opt;
    session_opt.household_id = "house-ckpt";
    auto created = service.CreateSession("fridge", session_opt);
    ASSERT_TRUE(created.ok());
    std::shared_ptr<serve::Session> session = created.value();
    for (int64_t chunk_len : {21, 18}) {
      std::vector<float> chunk = RandomChunk(&rng, chunk_len);
      concatenated.insert(concatenated.end(), chunk.begin(), chunk.end());
      Result<serve::ScanResult> result =
          session->AppendReadings(std::move(chunk)).get();
      ASSERT_TRUE(result.ok());
      timeline.Overlay(result.value());
    }
    ASSERT_TRUE(service.CheckpointSessions(dir).ok());
    EXPECT_EQ(service.stats().checkpoints_written, 1);
    // The service dies here with the session still live — the crash.
  }

  // Phase 2: a fresh service restores the session and keeps streaming.
  // After every post-restore append, the suffixes overlaid across the
  // crash must be bitwise-identical to a one-shot scan of the full
  // series — i.e. to an uninterrupted session (which the serving
  // contract already pins to the one-shot result).
  serve::Service service;
  ASSERT_TRUE(service
                  .RegisterAppliance("fridge", &ensemble,
                                     SmallRunner(16, 8, 4, 600.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());
  auto restored = service.RestoreSessions(dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), 1);
  EXPECT_EQ(service.stats().sessions_restored, 1);
  EXPECT_EQ(service.stats().live_sessions, 1);

  auto revived = service.GetSession("house-ckpt");
  ASSERT_TRUE(revived.ok());
  std::shared_ptr<serve::Session> session = revived.value();
  EXPECT_EQ(session->appliance(), "fridge");
  EXPECT_EQ(session->readings(),
            static_cast<int64_t>(concatenated.size()));

  for (int64_t chunk_len : {9, 30, 14}) {
    std::vector<float> chunk = RandomChunk(&rng, chunk_len);
    concatenated.insert(concatenated.end(), chunk.begin(), chunk.end());
    Result<serve::ScanResult> result =
        session->AppendReadings(std::move(chunk)).get();
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result.value().from + result.value().detection.numel(),
              session->readings());
    timeline.Overlay(result.value());
    Result<serve::ScanResult> reference =
        service.Submit("fridge", concatenated).get();
    ASSERT_TRUE(reference.ok());
    ExpectTimelineBitwiseEqual(timeline, reference.value(),
                               "post-restore prefix " +
                                   std::to_string(concatenated.size()));
  }
  EXPECT_TRUE(session->Close().ok());
}

TEST(ServiceCheckpointTest, RestoreDegradesGracefully) {
  const std::string dir = TestDir("restore_degrade");
  core::CamalEnsemble ensemble = RandomEnsemble(83);

  // Snapshot three sessions: one restorable, one for an appliance the
  // new service does not register, one whose id collides with a live
  // session in the new service.
  std::vector<serve::SessionSnapshot> sessions;
  sessions.push_back(MakeSnapshot("house-ok", 51, 24));
  serve::SessionSnapshot unknown = MakeSnapshot("house-toaster", 53, 24);
  unknown.appliance = "toaster";
  sessions.push_back(std::move(unknown));
  sessions.push_back(MakeSnapshot("house-live", 55, 24));
  ASSERT_TRUE(serve::WriteSessionCheckpoint(serve::Service::CheckpointFile(dir),
                                            sessions)
                  .ok());

  serve::Service service;
  ASSERT_TRUE(service
                  .RegisterAppliance("fridge", &ensemble,
                                     SmallRunner(16, 8, 4, 500.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());
  serve::SessionOptions live_opt;
  live_opt.household_id = "house-live";
  auto live = service.CreateSession("fridge", live_opt);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live.value()->AppendReadings(std::vector<float>(20, 42.0f))
                  .get()
                  .ok());

  // Only house-ok restores: the unknown appliance is skipped and the
  // live session wins over its snapshot.
  auto restored = service.RestoreSessions(dir);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), 1);
  EXPECT_EQ(service.stats().sessions_restored, 1);
  ASSERT_TRUE(service.GetSession("house-ok").ok());
  EXPECT_FALSE(service.GetSession("house-toaster").ok());
  EXPECT_EQ(service.GetSession("house-live").value()->readings(), 20);

  // Restoring from a directory with no checkpoint is a fresh boot.
  EXPECT_EQ(service.RestoreSessions(TestDir("restore_fresh")).value(), 0);
}

TEST(ServiceCheckpointTest, RestoreSkipsGridWindowMismatch) {
  // A record whose grid_windows disagrees with its appliance's window
  // plan would make later appends skip (or re-vote) grid windows, so
  // restore skips it like an unregistered appliance. So does a trimmed
  // record (base > 0) holding fewer than window_length readings: its next
  // end-aligned tail window would start before its base, a negative
  // window offset. Their sibling with consistent state still restores and
  // resumes bitwise-identically.
  const std::string dir = TestDir("restore_grid_mismatch");
  core::CamalEnsemble ensemble = RandomEnsemble(93);
  const serve::BatchRunnerOptions runner = SmallRunner(16, 8, 4, 600.0f);
  Rng rng(94);
  std::vector<float> series = RandomChunk(&rng, 100);
  SessionTimeline good_timeline;
  {
    serve::Service service;
    ASSERT_TRUE(service.RegisterAppliance("fridge", &ensemble, runner).ok());
    ASSERT_TRUE(service.Start().ok());
    for (const char* id : {"house-good", "house-bad", "house-short"}) {
      serve::SessionOptions session_opt;
      session_opt.household_id = id;
      auto session = service.CreateSession("fridge", session_opt);
      ASSERT_TRUE(session.ok());
      Result<serve::ScanResult> result =
          session.value()->AppendReadings(series).get();
      ASSERT_TRUE(result.ok());
      if (std::string(id) == "house-good") {
        good_timeline.Overlay(result.value());
      }
    }
    ASSERT_TRUE(service.CheckpointSessions(dir).ok());
  }
  const std::string path = serve::Service::CheckpointFile(dir);
  auto snapshots = serve::ReadSessionCheckpoint(path);
  ASSERT_TRUE(snapshots.ok()) << snapshots.status().ToString();
  ASSERT_EQ(snapshots.value().size(), 3u);
  for (serve::SessionSnapshot& snapshot : snapshots.value()) {
    ASSERT_EQ(snapshot.state.grid_windows, data::GridWindowCount(100, 16, 8));
    // Every session was trimmed to one window of its history.
    ASSERT_EQ(snapshot.state.base, 100 - 16);
    ASSERT_EQ(snapshot.state.series.size(), 16u);
    if (snapshot.id == "house-bad") snapshot.state.grid_windows = 1000;
    if (snapshot.id != "house-short") continue;
    // Drop half the live window but keep readings() (and so the grid
    // count) consistent: only the short-window rule can catch it.
    serve::SessionScanState& state = snapshot.state;
    state.series.erase(state.series.begin(), state.series.begin() + 8);
    state.prob_sum.erase(state.prob_sum.begin(), state.prob_sum.begin() + 8);
    state.cover.erase(state.cover.begin(), state.cover.begin() + 8);
    state.on_votes.erase(state.on_votes.begin(), state.on_votes.begin() + 8);
    state.base += 8;
    ASSERT_EQ(state.readings(), 100);
  }
  ASSERT_TRUE(serve::WriteSessionCheckpoint(path, snapshots.value()).ok());

  serve::Service service;
  ASSERT_TRUE(service.RegisterAppliance("fridge", &ensemble, runner).ok());
  ASSERT_TRUE(service.Start().ok());
  auto restored = service.RestoreSessions(dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), 1);
  EXPECT_EQ(service.stats().sessions_restored, 1);
  EXPECT_EQ(service.GetSession("house-bad").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.GetSession("house-short").status().code(),
            StatusCode::kNotFound);

  auto good = service.GetSession("house-good");
  ASSERT_TRUE(good.ok());
  for (int64_t chunk_len : {0, 20}) {
    std::vector<float> chunk = RandomChunk(&rng, chunk_len);
    series.insert(series.end(), chunk.begin(), chunk.end());
    Result<serve::ScanResult> appended =
        good.value()->AppendReadings(std::move(chunk)).get();
    ASSERT_TRUE(appended.ok());
    ASSERT_EQ(appended.value().from + appended.value().detection.numel(),
              good.value()->readings());
    good_timeline.Overlay(appended.value());
    Result<serve::ScanResult> reference =
        service.Submit("fridge", series).get();
    ASSERT_TRUE(reference.ok());
    ExpectTimelineBitwiseEqual(good_timeline, reference.value(),
                               "house-good + " + std::to_string(chunk_len));
  }
}

// The stitch state a version 1 writer persisted for \p series: never
// trimmed, so every reading and every grid window's votes, summed in
// ascending window order as the runner sums them. Each window is
// localized alone (per-window results do not depend on batch company).
serve::SessionScanState UntrimmedState(core::CamalEnsemble* ensemble,
                                       const std::vector<float>& series,
                                       const serve::WindowStreamOptions& opt) {
  core::CamalLocalizer localizer(ensemble);
  const int64_t l = opt.window_length;
  serve::SessionScanState state;
  state.series = series;
  state.grid_windows = data::GridWindowCount(
      static_cast<int64_t>(series.size()), l, opt.stride);
  state.prob_sum.assign(series.size(), 0.0f);
  state.cover.assign(series.size(), 0);
  state.on_votes.assign(series.size(), 0);
  for (int64_t k = 0; k < state.grid_windows; ++k) {
    nn::Tensor window({1, 1, l});
    for (int64_t t = 0; t < l; ++t) {
      const float v = series[static_cast<size_t>(k * opt.stride + t)];
      window.at(t) = data::IsMissing(v) ? 0.0f : v * (1.0f / opt.input_scale);
    }
    core::LocalizationResult loc = localizer.Localize(window);
    for (int64_t t = 0; t < l; ++t) {
      const auto s = static_cast<size_t>(k * opt.stride + t);
      state.prob_sum[s] += loc.probabilities.at(0);
      ++state.cover[s];
      if (loc.status.at2(0, t) > 0.5f) ++state.on_votes[s];
    }
  }
  return state;
}

template <typename T>
void PutRaw(std::string* out, const T* values, size_t count) {
  out->append(reinterpret_cast<const char*>(values), count * sizeof(T));
}

template <typename T>
void PutCounted(std::string* out, const std::vector<T>& values) {
  const auto count = static_cast<int64_t>(values.size());
  PutRaw(out, &count, 1);
  PutRaw(out, values.data(), values.size());
}

// A one-record version 1 checkpoint, encoded by hand: the layout before
// records carried `base`.
std::string EncodeVersionOne(const serve::SessionSnapshot& snapshot) {
  std::string payload;
  for (const std::string* name : {&snapshot.id, &snapshot.appliance}) {
    const auto len = static_cast<uint32_t>(name->size());
    PutRaw(&payload, &len, 1);
    payload += *name;
  }
  PutRaw(&payload, &snapshot.max_pending_appends, 1);
  PutRaw(&payload, &snapshot.state.grid_windows, 1);
  PutCounted(&payload, snapshot.state.series);
  PutCounted(&payload, snapshot.state.prob_sum);
  PutCounted(&payload, snapshot.state.cover);
  PutCounted(&payload, snapshot.state.on_votes);

  // Header: magic, version 1, one session, payload CRC, payload bytes.
  const uint32_t crc = Crc32(payload.data(), payload.size());
  const uint32_t words[4] = {serve::SessionCheckpointFormat::kMagic, 1, 1, crc};
  const auto payload_bytes = static_cast<int64_t>(payload.size());
  std::string file;
  PutRaw(&file, words, 4);
  PutRaw(&file, &payload_bytes, 1);
  file.resize(serve::SessionCheckpointFormat::kHeaderBytes, '\0');
  return file + payload;
}

TEST(ServiceCheckpointTest, VersionOneCheckpointRestoresAndResumes) {
  // A version 1 record is a version 2 record that was never trimmed: the
  // reader takes it with base 0, and the restored session resumes
  // bitwise-identically, trimming itself on its first append.
  const std::string dir = TestDir("restore_v1");
  core::CamalEnsemble ensemble = RandomEnsemble(97);
  const serve::BatchRunnerOptions runner = SmallRunner(16, 8, 4, 600.0f);
  Rng rng(98);
  std::vector<float> series = RandomChunk(&rng, 90);
  for (size_t t = 30; t < 36; ++t) series[t] = std::nanf("");
  serve::SessionSnapshot v1;
  v1.id = "house-v1";
  v1.appliance = "fridge";
  v1.max_pending_appends = 12;
  v1.state = UntrimmedState(&ensemble, series, runner.stream);
  const std::string path = serve::Service::CheckpointFile(dir);
  WriteRawBytes(path, EncodeVersionOne(v1));

  auto read = serve::ReadSessionCheckpoint(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.value().size(), 1u);
  ExpectSnapshotEqual(read.value()[0], v1);  // base 0 included

  serve::Service service;
  ASSERT_TRUE(service.RegisterAppliance("fridge", &ensemble, runner).ok());
  ASSERT_TRUE(service.Start().ok());
  auto restored = service.RestoreSessions(dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored.value(), 1);
  auto session = service.GetSession("house-v1");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session.value()->readings(), 90);

  // Before the crash the session had returned the whole 90-reading
  // timeline, which is the one-shot scan of it.
  SessionTimeline timeline;
  Result<serve::ScanResult> before = service.Submit("fridge", series).get();
  ASSERT_TRUE(before.ok());
  timeline.Overlay(before.value());
  for (int64_t chunk_len : {0, 13, 40}) {
    std::vector<float> chunk = RandomChunk(&rng, chunk_len);
    series.insert(series.end(), chunk.begin(), chunk.end());
    Result<serve::ScanResult> appended =
        session.value()->AppendReadings(std::move(chunk)).get();
    ASSERT_TRUE(appended.ok());
    ASSERT_EQ(appended.value().from + appended.value().detection.numel(),
              session.value()->readings());
    timeline.Overlay(appended.value());
    Result<serve::ScanResult> reference =
        service.Submit("fridge", series).get();
    ASSERT_TRUE(reference.ok());
    ExpectTimelineBitwiseEqual(timeline, reference.value(),
                               "v1 + " + std::to_string(chunk_len));
  }
}

TEST(ServiceCheckpointTest, CorruptCheckpointKeepsTheServiceServing) {
  const std::string dir = TestDir("restore_corrupt");
  core::CamalEnsemble ensemble = RandomEnsemble(85);
  WriteRawBytes(serve::Service::CheckpointFile(dir), std::string(300, 'z'));

  serve::Service service;
  ASSERT_TRUE(service
                  .RegisterAppliance("fridge", &ensemble,
                                     SmallRunner(16, 8, 4, 500.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());
  auto restored = service.RestoreSessions(dir);
  ASSERT_FALSE(restored.ok());  // a Status, never a crash
  EXPECT_EQ(service.stats().sessions_restored, 0);

  // Degraded to fresh sessions: the service still serves.
  std::vector<float> series(40, 800.0f);
  EXPECT_TRUE(service.Submit("fridge", series).get().ok());
  serve::SessionOptions session_opt;
  session_opt.household_id = "fresh";
  auto session = service.CreateSession("fridge", session_opt);
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session.value()
                  ->AppendReadings(std::vector<float>(24, 700.0f))
                  .get()
                  .ok());
}

TEST(ServiceCheckpointTest, ShutdownFlushesARestorableSnapshot) {
  const std::string dir = TestDir("shutdown_flush");
  core::CamalEnsemble ensemble = RandomEnsemble(87);
  {
    serve::ServiceOptions opt;
    opt.checkpoint_dir = dir;
    serve::Service service(opt);
    ASSERT_TRUE(service
                    .RegisterAppliance("fridge", &ensemble,
                                       SmallRunner(16, 8, 4, 500.0f))
                    .ok());
    ASSERT_TRUE(service.Start().ok());
    serve::SessionOptions session_opt;
    session_opt.household_id = "house-flush";
    auto session = service.CreateSession("fridge", session_opt);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session.value()
                    ->AppendReadings(std::vector<float>(33, 900.0f))
                    .get()
                    .ok());
    service.Shutdown();  // flushes every live session to the checkpoint
  }
  auto restored =
      serve::ReadSessionCheckpoint(serve::Service::CheckpointFile(dir));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored.value().size(), 1u);
  EXPECT_EQ(restored.value()[0].id, "house-flush");
  EXPECT_EQ(restored.value()[0].state.readings(), 33);
}

TEST(ServiceCheckpointTest, PeriodicSweepWritesWithoutExplicitCalls) {
  const std::string dir = TestDir("periodic_sweep");
  core::CamalEnsemble ensemble = RandomEnsemble(89);
  serve::ServiceOptions opt;
  opt.checkpoint_dir = dir;
  opt.checkpoint_interval_seconds = 0.01;
  serve::Service service(opt);
  ASSERT_TRUE(service
                  .RegisterAppliance("fridge", &ensemble,
                                     SmallRunner(16, 8, 4, 500.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());
  serve::SessionOptions session_opt;
  session_opt.household_id = "house-sweep";
  auto session = service.CreateSession("fridge", session_opt);
  ASSERT_TRUE(session.ok());
  // Keep workers busy past the interval so a sweep triggers.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(session.value()
                    ->AppendReadings(std::vector<float>(12, 650.0f))
                    .get()
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // A worker sweeps after resolving its group's futures, so a claimed
  // sweep can still be in its fsync here: wait for it, boundedly.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.stats().checkpoints_written < 1 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(service.stats().checkpoints_written, 1);
  EXPECT_TRUE(
      std::filesystem::exists(serve::Service::CheckpointFile(dir)));
  service.Shutdown();
}

// Checkpoints a one-worker service writes while one session takes ten
// appends under a sweep interval of \p interval_seconds: {before Shutdown,
// after its flush}.
std::pair<int64_t, int64_t> SweepsThenFlush(const std::string& name,
                                            double interval_seconds) {
  const std::string dir = TestDir(name);
  core::CamalEnsemble ensemble = RandomEnsemble(99);
  serve::ServiceOptions opt;
  opt.workers = 1;
  opt.checkpoint_dir = dir;
  opt.checkpoint_interval_seconds = interval_seconds;
  serve::Service service(opt);
  EXPECT_TRUE(service
                  .RegisterAppliance("fridge", &ensemble,
                                     SmallRunner(16, 8, 4, 500.0f))
                  .ok());
  EXPECT_TRUE(service.Start().ok());
  serve::SessionOptions session_opt;
  session_opt.household_id = "house-interval";
  auto session = service.CreateSession("fridge", session_opt);
  EXPECT_TRUE(session.ok());
  if (!session.ok()) return {-1, -1};
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(session.value()
                    ->AppendReadings(std::vector<float>(12, 650.0f))
                    .get()
                    .ok());
  }
  const int64_t swept = service.stats().checkpoints_written;
  service.Shutdown();
  return {swept, service.stats().checkpoints_written};
}

// Intervals past steady_clock's range used to convert to INT64_MIN ticks,
// so a worker swept after nearly every group.
TEST(ServiceCheckpointTest, InfiniteIntervalNeverSweepsButShutdownFlushes) {
  const auto [swept, total] = SweepsThenFlush(
      "interval_inf", std::numeric_limits<double>::infinity());
  EXPECT_EQ(swept, 0);
  EXPECT_EQ(total, 1);  // the Shutdown flush
}

TEST(ServiceCheckpointTest, IntervalPastClockRangeNeverSweeps) {
  const auto [swept, total] = SweepsThenFlush("interval_1e10", 1e10);
  EXPECT_EQ(swept, 0);
  EXPECT_EQ(total, 1);
}

TEST(ServiceCheckpointTest, NanIntervalDisablesTheSweepLikeZero) {
  const auto [swept, total] =
      SweepsThenFlush("interval_nan", std::nan(""));
  EXPECT_EQ(swept, 0);
  EXPECT_EQ(total, 1);
}

TEST(ServiceCheckpointTest, CheckpointWriteFaultIsAStatusAndServiceServes) {
  const std::string dir = TestDir("checkpoint_write_fault");
  core::CamalEnsemble ensemble = RandomEnsemble(91);
  FaultPlan plan;
  plan.fail_write_at = 1;
  FaultInjector faults(plan);
  serve::ServiceOptions opt;
  opt.fault_injector = &faults;
  serve::Service service(opt);
  ASSERT_TRUE(service
                  .RegisterAppliance("fridge", &ensemble,
                                     SmallRunner(16, 8, 4, 500.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());
  serve::SessionOptions session_opt;
  session_opt.household_id = "house-io";
  auto session = service.CreateSession("fridge", session_opt);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()
                  ->AppendReadings(std::vector<float>(16, 500.0f))
                  .get()
                  .ok());

  EXPECT_EQ(service.CheckpointSessions(dir).code(), StatusCode::kIoError);
  EXPECT_FALSE(
      std::filesystem::exists(serve::Service::CheckpointFile(dir)));
  // The failed sweep did not poison serving.
  EXPECT_TRUE(session.value()
                  ->AppendReadings(std::vector<float>(8, 450.0f))
                  .get()
                  .ok());
}

// ---------------------------------------------------------------------
// Retry with graceful degradation.
// ---------------------------------------------------------------------

TEST(RetryTest, TransientScanFaultIsRetriedToSuccess) {
  core::CamalEnsemble ensemble = RandomEnsemble(93);
  FaultPlan plan;
  plan.scan_label = "retry-house";
  plan.fail_scan_at = 1;
  plan.fail_scan_count = 2;  // first two attempts fault, third succeeds
  FaultInjector faults(plan);
  serve::ServiceOptions opt;
  opt.workers = 1;
  opt.fault_injector = &faults;
  opt.retry.max_attempts = 3;
  opt.retry.initial_backoff_seconds = 1e-4;
  serve::Service service(opt);
  ASSERT_TRUE(service
                  .RegisterAppliance("fridge", &ensemble,
                                     SmallRunner(16, 8, 4, 500.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());

  std::vector<float> series(40, 1200.0f);
  serve::ScanRequest request;
  request.household_id = "retry-house";
  request.appliance = "fridge";
  request.owned_series = series;
  Result<serve::ScanResult> result = service.Submit(std::move(request)).get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.retries_attempted, 2);
  EXPECT_EQ(stats.retries_exhausted, 0);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(faults.faults_injected(), 2);

  // The retried result is the same scan: bitwise equal to a fault-free
  // one-shot of the same series.
  Result<serve::ScanResult> reference = service.Submit("fridge", series).get();
  ASSERT_TRUE(reference.ok());
  ExpectBitwiseEqual(result.value(), reference.value(), "retried scan");
}

TEST(RetryTest, PersistentFaultExhaustsRetriesWithInternal) {
  core::CamalEnsemble ensemble = RandomEnsemble(95);
  FaultPlan plan;
  plan.scan_label = "poison";  // no window, no rate: every scan faults
  FaultInjector faults(plan);
  serve::ServiceOptions opt;
  opt.workers = 1;
  opt.fault_injector = &faults;
  opt.retry.max_attempts = 3;
  opt.retry.initial_backoff_seconds = 1e-4;
  serve::Service service(opt);
  ASSERT_TRUE(service
                  .RegisterAppliance("fridge", &ensemble,
                                     SmallRunner(16, 8, 4, 500.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());

  serve::ScanRequest request;
  request.household_id = "poison";
  request.appliance = "fridge";
  request.owned_series = std::vector<float>(32, 100.0f);
  Result<serve::ScanResult> result = service.Submit(std::move(request)).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().ToString().find("injected scan fault"),
            std::string::npos);

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.retries_attempted, 2);   // two extra attempts consumed
  EXPECT_EQ(stats.retries_exhausted, 1);   // and the request still failed
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(faults.faults_injected(), 3);

  // Other households are untouched by the poison label.
  EXPECT_TRUE(
      service.Submit("fridge", std::vector<float>(24, 200.0f)).get().ok());
}

TEST(RetryTest, SessionAppendsAreNeverRetried) {
  // A faulted append leaves the stitch state suspect, so it must fail
  // the session instead of retrying — even with retries enabled.
  core::CamalEnsemble ensemble = RandomEnsemble(97);
  FaultPlan plan;
  plan.scan_label = "doomed-session";
  FaultInjector faults(plan);
  serve::ServiceOptions opt;
  opt.workers = 1;
  opt.fault_injector = &faults;
  opt.retry.max_attempts = 3;
  serve::Service service(opt);
  ASSERT_TRUE(service
                  .RegisterAppliance("fridge", &ensemble,
                                     SmallRunner(16, 8, 4, 500.0f))
                  .ok());
  ASSERT_TRUE(service.Start().ok());

  serve::SessionOptions session_opt;
  session_opt.household_id = "doomed-session";
  auto created = service.CreateSession("fridge", session_opt);
  ASSERT_TRUE(created.ok());
  Result<serve::ScanResult> result =
      created.value()->AppendReadings(std::vector<float>(20, 300.0f)).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(created.value()->closed());

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.retries_attempted, 0);  // exactly one attempt was made
  EXPECT_EQ(faults.faults_injected(), 1);
  EXPECT_EQ(stats.sessions_closed, 1);
}

}  // namespace
}  // namespace camal
