#include "serve/checkpoint.h"

#include <cstring>
#include <limits>

#include "common/atomic_file.h"
#include "common/crc32.h"
#include "data/mmap_file.h"

namespace camal::serve {
namespace {

/// Fixed 48-byte file header. Serialized field by field (memcpy through a
/// byte buffer) like the column store, so the on-disk layout is the spec
/// in checkpoint.h, not whatever a compiler pads a struct to.
struct Header {
  uint32_t magic = SessionCheckpointFormat::kMagic;      // offset 0
  uint32_t version = SessionCheckpointFormat::kVersion;  // offset 4
  uint32_t session_count = 0;                            // offset 8
  uint32_t payload_crc = 0;                              // offset 12
  int64_t payload_bytes = 0;                             // offset 16
  // offsets 24..48 reserved, written as zeros.
};

void EncodeHeader(const Header& header,
                  uint8_t out[SessionCheckpointFormat::kHeaderBytes]) {
  std::memset(out, 0, SessionCheckpointFormat::kHeaderBytes);
  std::memcpy(out + 0, &header.magic, 4);
  std::memcpy(out + 4, &header.version, 4);
  std::memcpy(out + 8, &header.session_count, 4);
  std::memcpy(out + 12, &header.payload_crc, 4);
  std::memcpy(out + 16, &header.payload_bytes, 8);
}

Header DecodeHeader(const uint8_t* in) {
  Header header;
  std::memcpy(&header.magic, in + 0, 4);
  std::memcpy(&header.version, in + 4, 4);
  std::memcpy(&header.session_count, in + 8, 4);
  std::memcpy(&header.payload_crc, in + 12, 4);
  std::memcpy(&header.payload_bytes, in + 16, 8);
  return header;
}

void AppendBytes(std::vector<uint8_t>* out, const void* bytes, size_t n) {
  if (n == 0) return;  // an empty vector's data() may be null
  const uint8_t* p = static_cast<const uint8_t*>(bytes);
  out->insert(out->end(), p, p + n);
}

void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  AppendBytes(out, &v, 4);
}

void AppendI64(std::vector<uint8_t>* out, int64_t v) {
  AppendBytes(out, &v, 8);
}

/// Bounds-checked payload reader: every Take validates against the
/// payload end before touching bytes, so a corrupt count can never walk
/// the cursor out of the mapping.
class PayloadReader {
 public:
  PayloadReader(const uint8_t* data, int64_t size, std::string path)
      : data_(data), size_(size), path_(std::move(path)) {}

  Status TakeU32(uint32_t* out) { return Take(out, 4); }
  Status TakeI64(int64_t* out) { return Take(out, 8); }

  Status TakeString(uint32_t len, std::string* out) {
    if (len > SessionCheckpointFormat::kMaxNameBytes) {
      return Corrupt("oversized name");
    }
    if (size_ - cursor_ < static_cast<int64_t>(len)) {
      return Corrupt("truncated name");
    }
    out->assign(reinterpret_cast<const char*>(data_ + cursor_), len);
    cursor_ += len;
    return Status::OK();
  }

  template <typename T>
  Status TakeVector(int64_t count, std::vector<T>* out) {
    constexpr int64_t kElem = static_cast<int64_t>(sizeof(T));
    if (count < 0 || count > (size_ - cursor_) / kElem) {
      return Corrupt("vector length out of bounds");
    }
    out->resize(static_cast<size_t>(count));
    if (count == 0) return Status::OK();  // data() may be null
    std::memcpy(out->data(), data_ + cursor_,
                static_cast<size_t>(count) * sizeof(T));
    cursor_ += count * kElem;
    return Status::OK();
  }

  bool exhausted() const { return cursor_ == size_; }

  Status Corrupt(const std::string& what) const {
    return Status::InvalidArgument(path_ + ": corrupt session record (" +
                                   what + ")");
  }

 private:
  Status Take(void* out, int64_t n) {
    if (size_ - cursor_ < n) return Corrupt("truncated field");
    std::memcpy(out, data_ + cursor_, static_cast<size_t>(n));
    cursor_ += n;
    return Status::OK();
  }

  const uint8_t* data_;
  const int64_t size_;
  int64_t cursor_ = 0;
  const std::string path_;
};

}  // namespace

Status WriteSessionCheckpoint(const std::string& path,
                              const std::vector<SessionSnapshot>& sessions,
                              FaultInjector* faults) {
  if (sessions.size() >
      static_cast<size_t>(std::numeric_limits<uint32_t>::max())) {
    return Status::InvalidArgument("too many sessions to checkpoint");
  }
  std::vector<uint8_t> payload;
  for (const SessionSnapshot& snapshot : sessions) {
    if (snapshot.id.empty() ||
        snapshot.id.size() > SessionCheckpointFormat::kMaxNameBytes) {
      return Status::InvalidArgument("session id empty or too long: '" +
                                     snapshot.id + "'");
    }
    if (snapshot.appliance.empty() ||
        snapshot.appliance.size() > SessionCheckpointFormat::kMaxNameBytes) {
      return Status::InvalidArgument("appliance name empty or too long");
    }
    const SessionScanState& state = snapshot.state;
    AppendU32(&payload, static_cast<uint32_t>(snapshot.id.size()));
    AppendBytes(&payload, snapshot.id.data(), snapshot.id.size());
    AppendU32(&payload, static_cast<uint32_t>(snapshot.appliance.size()));
    AppendBytes(&payload, snapshot.appliance.data(),
                snapshot.appliance.size());
    AppendI64(&payload, snapshot.max_pending_appends);
    AppendI64(&payload, state.grid_windows);
    AppendI64(&payload, state.base);
    // Raw little-endian bytes of each accumulator: bit-exact round trip,
    // NaN payloads included — anything lossier would break the
    // bitwise-identity guarantee across a restart.
    AppendI64(&payload, static_cast<int64_t>(state.series.size()));
    AppendBytes(&payload, state.series.data(), state.series.size() * 4);
    AppendI64(&payload, static_cast<int64_t>(state.prob_sum.size()));
    AppendBytes(&payload, state.prob_sum.data(), state.prob_sum.size() * 4);
    AppendI64(&payload, static_cast<int64_t>(state.cover.size()));
    AppendBytes(&payload, state.cover.data(), state.cover.size() * 4);
    AppendI64(&payload, static_cast<int64_t>(state.on_votes.size()));
    AppendBytes(&payload, state.on_votes.data(), state.on_votes.size() * 4);
  }

  Header header;
  header.session_count = static_cast<uint32_t>(sessions.size());
  header.payload_bytes = static_cast<int64_t>(payload.size());
  header.payload_crc = Crc32(payload.data(), payload.size());

  AtomicFileWriter writer(path, faults);
  uint8_t encoded[SessionCheckpointFormat::kHeaderBytes];
  EncodeHeader(header, encoded);
  CAMAL_RETURN_NOT_OK(writer.Write(encoded, sizeof(encoded)));
  CAMAL_RETURN_NOT_OK(writer.Write(payload.data(), payload.size()));
  return writer.Commit();
}

Result<std::vector<SessionSnapshot>> ReadSessionCheckpoint(
    const std::string& path) {
  CAMAL_ASSIGN_OR_RETURN(data::MmapFile file, data::MmapFile::Open(path));
  const int64_t file_size = static_cast<int64_t>(file.size());
  if (file_size <
      static_cast<int64_t>(SessionCheckpointFormat::kHeaderBytes)) {
    return Status::InvalidArgument(
        path + ": truncated checkpoint header (" +
        std::to_string(file_size) + " bytes" +
        (file_size == 0 ? ", empty file" : "") + ")");
  }
  const Header header = DecodeHeader(file.data());
  if (header.magic != SessionCheckpointFormat::kMagic) {
    return Status::InvalidArgument(
        path + ": bad magic (not a session checkpoint)");
  }
  if (header.version < SessionCheckpointFormat::kMinVersion ||
      header.version > SessionCheckpointFormat::kVersion) {
    return Status::InvalidArgument(
        path + ": unsupported checkpoint version " +
        std::to_string(header.version) + " (reader supports " +
        std::to_string(SessionCheckpointFormat::kMinVersion) + " to " +
        std::to_string(SessionCheckpointFormat::kVersion) + ")");
  }
  const int64_t header_bytes =
      static_cast<int64_t>(SessionCheckpointFormat::kHeaderBytes);
  if (header.payload_bytes < 0 ||
      header.payload_bytes != file_size - header_bytes) {
    return Status::InvalidArgument(
        path + ": torn checkpoint payload (declared " +
        std::to_string(header.payload_bytes) + " bytes, file holds " +
        std::to_string(file_size - header_bytes) + ")");
  }
  // CRC over the whole payload BEFORE parsing any record: a bit flip
  // must be rejected outright, not parsed into plausible-looking state.
  const uint32_t crc =
      Crc32(file.data() + header_bytes,
            static_cast<size_t>(header.payload_bytes));
  if (crc != header.payload_crc) {
    return Status::InvalidArgument(path +
                                   ": checkpoint payload CRC mismatch");
  }

  PayloadReader reader(file.data() + header_bytes, header.payload_bytes,
                       path);
  // No reserve from session_count: the header sits outside the CRC, so
  // the count is untrusted; the loop fails on the first missing record.
  std::vector<SessionSnapshot> sessions;
  for (uint32_t i = 0; i < header.session_count; ++i) {
    SessionSnapshot snapshot;
    uint32_t id_len = 0;
    CAMAL_RETURN_NOT_OK(reader.TakeU32(&id_len));
    CAMAL_RETURN_NOT_OK(reader.TakeString(id_len, &snapshot.id));
    uint32_t appliance_len = 0;
    CAMAL_RETURN_NOT_OK(reader.TakeU32(&appliance_len));
    CAMAL_RETURN_NOT_OK(
        reader.TakeString(appliance_len, &snapshot.appliance));
    CAMAL_RETURN_NOT_OK(reader.TakeI64(&snapshot.max_pending_appends));
    CAMAL_RETURN_NOT_OK(reader.TakeI64(&snapshot.state.grid_windows));
    // A version 1 record was never trimmed: its series starts at 0.
    if (header.version >= 2) {
      CAMAL_RETURN_NOT_OK(reader.TakeI64(&snapshot.state.base));
    }
    int64_t count = 0;
    CAMAL_RETURN_NOT_OK(reader.TakeI64(&count));
    CAMAL_RETURN_NOT_OK(reader.TakeVector(count, &snapshot.state.series));
    CAMAL_RETURN_NOT_OK(reader.TakeI64(&count));
    CAMAL_RETURN_NOT_OK(reader.TakeVector(count, &snapshot.state.prob_sum));
    CAMAL_RETURN_NOT_OK(reader.TakeI64(&count));
    CAMAL_RETURN_NOT_OK(reader.TakeVector(count, &snapshot.state.cover));
    CAMAL_RETURN_NOT_OK(reader.TakeI64(&count));
    CAMAL_RETURN_NOT_OK(reader.TakeVector(count, &snapshot.state.on_votes));
    if (snapshot.id.empty() || snapshot.appliance.empty()) {
      return reader.Corrupt("empty session id or appliance");
    }
    if (snapshot.max_pending_appends < 0 ||
        snapshot.state.grid_windows < 0 || snapshot.state.base < 0) {
      return reader.Corrupt("negative count");
    }
    // Every accumulator holds one entry per live reading; a shorter one
    // would silently drop committed votes on the next append.
    const size_t len = snapshot.state.series.size();
    if (snapshot.state.base >
        SessionCheckpointFormat::kMaxReadings - static_cast<int64_t>(len)) {
      return reader.Corrupt("base + series length out of range");
    }
    if (snapshot.state.prob_sum.size() != len ||
        snapshot.state.cover.size() != len ||
        snapshot.state.on_votes.size() != len) {
      return reader.Corrupt("accumulator length differs from series length");
    }
    sessions.push_back(std::move(snapshot));
  }
  if (!reader.exhausted()) {
    return reader.Corrupt("trailing bytes after the last record");
  }
  return sessions;
}

}  // namespace camal::serve
