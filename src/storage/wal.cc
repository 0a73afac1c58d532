#include "storage/wal.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/wire.h"

namespace tango {
namespace storage {

namespace fs = std::filesystem;

const char* WalRecordTypeName(WalRecordType type) {
  switch (type) {
    case WalRecordType::kCommit:
      return "commit";
    case WalRecordType::kEnd:
      return "end";
    case WalRecordType::kInsert:
      return "insert";
    case WalRecordType::kUpdate:
      return "update";
    case WalRecordType::kClrInsert:
      return "clr-insert";
    case WalRecordType::kClrUpdate:
      return "clr-update";
    case WalRecordType::kCreateTable:
      return "create-table";
    case WalRecordType::kDropTable:
      return "drop-table";
    case WalRecordType::kCreateIndex:
      return "create-index";
    case WalRecordType::kAnalyze:
      return "analyze";
    case WalRecordType::kBulkLoad:
      return "bulk-load";
    case WalRecordType::kCheckpoint:
      return "checkpoint";
  }
  return "unknown";
}

std::vector<uint8_t> WalRecord::EncodeFrame() const {
  WireWriter w;
  w.BeginFrame();
  w.PutU8(static_cast<uint8_t>(type));
  w.PutI64(static_cast<int64_t>(txn));
  w.PutI64(static_cast<int64_t>(prev_lsn));
  w.PutI64(static_cast<int64_t>(undo_next));
  w.PutString(table);
  w.PutU32(rid.page);
  w.PutU32(rid.slot);
  w.PutU32(static_cast<uint32_t>(rows.size()));
  for (const Tuple& t : rows) w.PutTuple(t);
  w.PutI64(static_cast<int64_t>(aux));
  w.PutU32(static_cast<uint32_t>(schema_columns.size()));
  for (const Column& c : schema_columns) {
    w.PutString(c.name);
    w.PutU8(static_cast<uint8_t>(c.type));
  }
  w.PutU32(static_cast<uint32_t>(active_txns.size()));
  for (const auto& [id, first] : active_txns) {
    w.PutI64(static_cast<int64_t>(id));
    w.PutI64(static_cast<int64_t>(first));
  }
  w.SealFrame();
  return w.Take();
}

Result<WalRecord> WalRecord::Decode(const uint8_t* data, size_t size) {
  WireReader r(data, size);
  WalRecord rec;
  TANGO_ASSIGN_OR_RETURN(const uint8_t type, r.GetU8());
  if (type < static_cast<uint8_t>(WalRecordType::kCommit) ||
      type > static_cast<uint8_t>(WalRecordType::kCheckpoint)) {
    return Status::IOError("unknown wal record type " + std::to_string(type));
  }
  rec.type = static_cast<WalRecordType>(type);
  TANGO_ASSIGN_OR_RETURN(int64_t txn, r.GetI64());
  rec.txn = static_cast<uint64_t>(txn);
  TANGO_ASSIGN_OR_RETURN(int64_t prev, r.GetI64());
  rec.prev_lsn = static_cast<Lsn>(prev);
  TANGO_ASSIGN_OR_RETURN(int64_t un, r.GetI64());
  rec.undo_next = static_cast<Lsn>(un);
  TANGO_ASSIGN_OR_RETURN(rec.table, r.GetString());
  TANGO_ASSIGN_OR_RETURN(rec.rid.page, r.GetU32());
  TANGO_ASSIGN_OR_RETURN(rec.rid.slot, r.GetU32());
  TANGO_ASSIGN_OR_RETURN(const uint32_t nrows, r.GetU32());
  rec.rows.reserve(nrows);
  for (uint32_t i = 0; i < nrows; ++i) {
    TANGO_ASSIGN_OR_RETURN(Tuple t, r.GetTuple());
    rec.rows.push_back(std::move(t));
  }
  TANGO_ASSIGN_OR_RETURN(int64_t aux, r.GetI64());
  rec.aux = static_cast<uint64_t>(aux);
  TANGO_ASSIGN_OR_RETURN(const uint32_t ncols, r.GetU32());
  rec.schema_columns.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    Column c;
    TANGO_ASSIGN_OR_RETURN(c.name, r.GetString());
    TANGO_ASSIGN_OR_RETURN(const uint8_t dt, r.GetU8());
    c.type = static_cast<DataType>(dt);
    rec.schema_columns.push_back(std::move(c));
  }
  TANGO_ASSIGN_OR_RETURN(const uint32_t nactive, r.GetU32());
  rec.active_txns.reserve(nactive);
  for (uint32_t i = 0; i < nactive; ++i) {
    TANGO_ASSIGN_OR_RETURN(int64_t id, r.GetI64());
    TANGO_ASSIGN_OR_RETURN(int64_t first, r.GetI64());
    rec.active_txns.emplace_back(static_cast<uint64_t>(id),
                                 static_cast<Lsn>(first));
  }
  if (!r.AtEnd()) return Status::IOError("trailing bytes in wal record");
  return rec;
}

namespace {

constexpr char kSegmentPrefix[] = "wal-";
constexpr char kSegmentSuffix[] = ".seg";
constexpr char kSnapshotPrefix[] = "snap-";
constexpr char kSnapshotSuffix[] = ".ckpt";

/// Parses `<prefix><hex><suffix>`; returns false on mismatch.
bool ParseNumberedFile(const std::string& name, const char* prefix,
                       const char* suffix, uint64_t* value) {
  const size_t plen = std::strlen(prefix);
  const size_t slen = std::strlen(suffix);
  if (name.size() <= plen + slen) return false;
  if (name.compare(0, plen, prefix) != 0) return false;
  if (name.compare(name.size() - slen, slen, suffix) != 0) return false;
  const std::string hex = name.substr(plen, name.size() - plen - slen);
  char* end = nullptr;
  const uint64_t v = std::strtoull(hex.c_str(), &end, 16);
  if (end == nullptr || *end != '\0') return false;
  *value = v;
  return true;
}

std::string HexName(const char* prefix, uint64_t value, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%016llx%s", prefix,
                static_cast<unsigned long long>(value), suffix);
  return buf;
}

Result<std::vector<uint8_t>> ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> data(size < 0 ? 0 : static_cast<size_t>(size));
  if (!data.empty() && std::fread(data.data(), 1, data.size(), f) != data.size()) {
    std::fclose(f);
    return Status::IOError("short read from " + path);
  }
  std::fclose(f);
  return data;
}

/// Walks the frames in `data`; returns the offset of the first byte that is
/// not part of a complete, checksummed frame.
size_t GoodFramePrefix(const std::vector<uint8_t>& data) {
  size_t off = 0;
  const uint8_t* payload = nullptr;
  size_t len = 0;
  while (WireFrame::Check(data.data() + off, data.size() - off, &payload, &len)
             .ok()) {
    off += WireFrame::kHeaderBytes + len;
  }
  return off;
}

struct SegmentFile {
  uint64_t start;
  std::string path;
  uint64_t size;
};

std::vector<SegmentFile> ListSegments(const std::string& dir) {
  std::vector<SegmentFile> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t start = 0;
    const std::string name = entry.path().filename().string();
    if (!ParseNumberedFile(name, kSegmentPrefix, kSegmentSuffix, &start)) {
      continue;
    }
    out.push_back({start, entry.path().string(),
                   static_cast<uint64_t>(fs::file_size(entry.path(), ec))});
  }
  std::sort(out.begin(), out.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.start < b.start;
            });
  return out;
}

}  // namespace

std::string Wal::SegmentPath(uint64_t start) const {
  return dir_ + "/" + HexName(kSegmentPrefix, start, kSegmentSuffix);
}

std::string Wal::SnapshotPath(const std::string& dir, Lsn lsn) {
  return dir + "/" + HexName(kSnapshotPrefix, lsn, kSnapshotSuffix);
}

Status Wal::Open() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) return Status::IOError("cannot create wal dir " + dir_);
  segments_.clear();
  pending_.clear();
  end_ = durable_ = 0;
  crashed_ = false;
  for (const SegmentFile& seg : ListSegments(dir_)) {
    // Trim a torn tail down to the last complete frame, so the append point
    // never lands in the middle of a damaged record.
    TANGO_ASSIGN_OR_RETURN(std::vector<uint8_t> data, ReadWholeFile(seg.path));
    const size_t good = GoodFramePrefix(data);
    if (good < data.size()) {
      fs::resize_file(seg.path, good, ec);
      if (ec) return Status::IOError("cannot trim torn tail of " + seg.path);
    }
    segments_.push_back({seg.start, good});
    end_ = durable_ = seg.start + good;
    if (good < data.size()) break;  // nothing after a torn segment is durable
  }
  return Status::OK();
}

Result<Lsn> Wal::Append(WalRecord* record) {
  if (crashed_) return Status::Unavailable("wal crashed; restart required");
  record->lsn = end_ + 1;
  const std::vector<uint8_t> framed = record->EncodeFrame();
  if (fault_hook_) {
    const WalFault fault = fault_hook_(false, record->lsn, framed.size());
    if (fault.action == WalFault::Action::kCrash) {
      crashed_ = true;
      return Status::Unavailable("injected wal fault: crash at lsn " +
                                 std::to_string(record->lsn));
    }
    if (fault.action == WalFault::Action::kTorn) {
      // The torn prefix of the frame did reach the platter before the
      // process died; persist it so recovery faces a genuinely damaged tail.
      const uint64_t keep =
          std::min<uint64_t>(fault.keep_bytes, framed.size() - 1);
      pending_.insert(pending_.end(), framed.begin(), framed.begin() + keep);
      crashed_ = true;
      (void)WriteDurable(pending_);
      pending_.clear();
      return Status::Unavailable("injected wal fault: torn write at lsn " +
                                 std::to_string(record->lsn));
    }
  }
  pending_.insert(pending_.end(), framed.begin(), framed.end());
  end_ += framed.size();
  ++appends_;
  bytes_appended_ += framed.size();
  return record->lsn;
}

Status Wal::Sync() {
  if (crashed_) return Status::Unavailable("wal crashed; restart required");
  if (pending_.empty()) return Status::OK();
  if (fault_hook_) {
    const WalFault fault = fault_hook_(true, end_ + 1, pending_.size());
    if (fault.action == WalFault::Action::kCrash) {
      crashed_ = true;
      pending_.clear();
      return Status::Unavailable("injected wal fault: crash during sync");
    }
    if (fault.action == WalFault::Action::kPartialFsync) {
      const uint64_t keep =
          std::min<uint64_t>(fault.keep_bytes, pending_.size());
      pending_.resize(keep);
      crashed_ = true;
      (void)WriteDurable(pending_);
      pending_.clear();
      return Status::Unavailable("injected wal fault: partial fsync");
    }
  }
  TANGO_RETURN_IF_ERROR(WriteDurable(pending_));
  pending_.clear();
  ++syncs_;
  return Status::OK();
}

Status Wal::WriteDurable(const std::vector<uint8_t>& data) {
  if (data.empty()) return Status::OK();
  if (segments_.empty() || segments_.back().size >= segment_bytes_) {
    segments_.push_back({durable_, 0});
  }
  Segment& seg = segments_.back();
  const std::string path = SegmentPath(seg.start);
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return Status::IOError("cannot open wal segment " + path);
  const size_t written = std::fwrite(data.data(), 1, data.size(), f);
  std::fflush(f);
  ::fsync(fileno(f));
  std::fclose(f);
  if (written != data.size()) {
    return Status::IOError("short write to wal segment " + path);
  }
  seg.size += data.size();
  durable_ = seg.start + seg.size;
  return Status::OK();
}

Result<size_t> Wal::TruncateBefore(Lsn lsn, Lsn keep_snapshot) {
  if (lsn == kNoLsn) return size_t{0};
  const uint64_t cutoff = lsn - 1;
  size_t reclaimed = 0;
  std::error_code ec;
  // Keep the last segment unconditionally: it is the live append target.
  while (segments_.size() > 1 &&
         segments_.front().start + segments_.front().size <= cutoff) {
    fs::remove(SegmentPath(segments_.front().start), ec);
    segments_.erase(segments_.begin());
    ++reclaimed;
  }
  for (const Lsn snap : ListSnapshots(dir_)) {
    if (snap < keep_snapshot) {
      fs::remove(SnapshotPath(dir_, snap), ec);
      ++reclaimed;
    }
  }
  return reclaimed;
}

Status Wal::WriteSealedFile(const std::string& path,
                            const std::vector<uint8_t>& framed) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot create " + tmp);
  const size_t written = std::fwrite(framed.data(), 1, framed.size(), f);
  std::fflush(f);
  ::fsync(fileno(f));
  std::fclose(f);
  if (written != framed.size()) return Status::IOError("short write to " + tmp);
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) return Status::IOError("cannot publish " + path);
  return Status::OK();
}

Result<std::vector<uint8_t>> Wal::ReadSealedFile(const std::string& path) {
  TANGO_ASSIGN_OR_RETURN(std::vector<uint8_t> framed, ReadWholeFile(path));
  const uint8_t* payload = nullptr;
  size_t len = 0;
  TANGO_RETURN_IF_ERROR(WireFrame::Check(framed, &payload, &len));
  return std::vector<uint8_t>(payload, payload + len);
}

std::vector<Lsn> Wal::ListSnapshots(const std::string& dir) {
  std::vector<Lsn> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t lsn = 0;
    if (ParseNumberedFile(entry.path().filename().string(), kSnapshotPrefix,
                          kSnapshotSuffix, &lsn)) {
      out.push_back(lsn);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<WalScan> ReadWal(const std::string& dir) {
  WalScan scan;
  bool first = true;
  for (const SegmentFile& seg : ListSegments(dir)) {
    if (first) {
      scan.start_lsn = seg.start + 1;
      first = false;
    }
    TANGO_ASSIGN_OR_RETURN(std::vector<uint8_t> data, ReadWholeFile(seg.path));
    size_t off = 0;
    const uint8_t* payload = nullptr;
    size_t len = 0;
    while (WireFrame::Check(data.data() + off, data.size() - off, &payload,
                            &len)
               .ok()) {
      Result<WalRecord> rec = WalRecord::Decode(payload, len);
      if (!rec.ok()) break;  // damaged payload that happens to checksum
      rec.ValueOrDie().lsn = seg.start + off + 1;
      scan.records.push_back(rec.MoveValueOrDie());
      off += WireFrame::kHeaderBytes + len;
    }
    if (off < data.size()) {
      scan.torn_tail = true;
      scan.torn_bytes = data.size() - off;
      break;  // nothing after a damaged frame is durable
    }
  }
  return scan;
}

}  // namespace storage
}  // namespace tango
