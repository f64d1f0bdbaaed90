#ifndef CAMAL_SERVE_CHECKPOINT_H_
#define CAMAL_SERVE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/batch_runner.h"

namespace camal {
class FaultInjector;
}  // namespace camal

namespace camal::serve {

/// Binary session-checkpoint format — the crash-safety counterpart of the
/// column store. One file snapshots every quiescent live session of a
/// Service, written atomically (temp + fsync + rename, AtomicFileWriter),
/// so a reader only ever sees a complete old snapshot or a complete new
/// one.
///
/// Layout (integers little-endian native, floats IEEE-754 binary32 with
/// payload bits preserved — restored stitch state must be bit-exact for
/// the bitwise-identity guarantee to survive a restart):
///
///   header   48 bytes: magic "CKPT", version, session count,
///            payload_bytes, CRC-32 of the payload
///   payload  per session, packed:
///              uint32 id length + bytes
///              uint32 appliance length + bytes
///              int64  max_pending_appends (SessionOptions)
///              int64  grid_windows
///              int64  base (absolute index of the first live reading;
///                     version 2 only)
///              int64  series count   + floats (live readings)
///              int64  prob_sum count + floats
///              int64  cover count    + int32s
///              int64  on_votes count + int32s
///
/// Version 2 records hold a session's live suffix only (SessionScanState:
/// at most window_length readings and slots), so a record is O(window)
/// whatever the session's history. The writer writes version 2; the
/// reader also accepts version 1, whose records lack `base` and are read
/// with base 0 — a version 1 record is a version 2 record that was never
/// trimmed.
///
/// Open-time validation is column_store style — size, magic, version,
/// declared payload length, then CRC over the whole payload before any
/// field is trusted — so a truncated header, torn payload, bit flip, or
/// version skew comes back as a Status, never a crash or a silently
/// wrong restore.
struct SessionCheckpointFormat {
  static constexpr uint32_t kMagic = 0x54504B43;  // "CKPT" little-endian
  static constexpr uint32_t kVersion = 2;
  /// Oldest version the reader accepts (see the layout above).
  static constexpr uint32_t kMinVersion = 1;
  static constexpr size_t kHeaderBytes = 48;
  /// Sanity bound on id/appliance names; real ids are tiny.
  static constexpr uint32_t kMaxNameBytes = 4096;
  /// Bound on a record's readings() (base + series length): 2^62 readings
  /// is ~10^11 years of 1 Hz data, and it leaves a restored session 2^62
  /// readings of appends before its int64 index arithmetic could
  /// overflow.
  static constexpr int64_t kMaxReadings = int64_t{1} << 62;
};

/// One live session's persisted state: identity plus the stitch
/// accumulators an incremental rescan resumes from (SessionScanState).
struct SessionSnapshot {
  std::string id;
  std::string appliance;
  int64_t max_pending_appends = 0;
  SessionScanState state;
};

/// Atomically replaces \p path with a checkpoint of \p sessions. An empty
/// snapshot (zero live sessions) is a valid file — restoring it is a
/// no-op, not an error. \p faults threads the fault-injection seams
/// through the IO (see AtomicFileWriter).
Status WriteSessionCheckpoint(const std::string& path,
                              const std::vector<SessionSnapshot>& sessions,
                              FaultInjector* faults = nullptr);

/// Reads and fully validates a checkpoint. Any malformed input — missing
/// file, truncated header, torn payload, CRC mismatch, version skew,
/// corrupt record (including accumulators whose length differs from the
/// series length, a negative base, or a base + series length past
/// kMaxReadings) — returns a Status; a caller degrades to fresh sessions
/// instead of crashing or trusting bad state.
Result<std::vector<SessionSnapshot>> ReadSessionCheckpoint(
    const std::string& path);

}  // namespace camal::serve

#endif  // CAMAL_SERVE_CHECKPOINT_H_
