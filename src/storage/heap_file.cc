#include "storage/heap_file.h"

#include <tuple>

namespace tango {
namespace storage {

Rid HeapFile::AppendStamped(const Tuple& tuple, uint64_t lsn) {
  WireWriter writer;
  writer.PutTuple(tuple);
  const std::vector<uint8_t>& encoded = writer.buffer();
  if (pages_.empty()) pages_.emplace_back(page_size_);
  int slot = pages_.back().Append(encoded);
  if (slot < 0) {
    pages_.emplace_back(page_size_);
    slot = pages_.back().Append(encoded);
  }
  pages_.back().StampLsn(lsn);
  ++num_tuples_;
  total_bytes_ += encoded.size();
  return Rid{static_cast<uint32_t>(pages_.size() - 1),
             static_cast<uint32_t>(slot)};
}

Status HeapFile::Update(const Rid& rid, const Tuple& tuple, uint64_t lsn) {
  if (rid.page >= pages_.size()) return Status::NotFound("bad page");
  Page& page = pages_[rid.page];
  if (rid.slot >= page.num_slots()) return Status::NotFound("bad slot");
  const uint32_t old_len = page.SlotLength(rid.slot);
  WireWriter writer;
  writer.PutTuple(tuple);
  TANGO_RETURN_IF_ERROR(page.Rewrite(rid.slot, writer.buffer()));
  page.StampLsn(lsn);
  if (!page.dead(rid.slot)) {
    total_bytes_ += writer.buffer().size();
    total_bytes_ -= old_len;
  }
  return Status::OK();
}

Status HeapFile::MarkDeleted(const Rid& rid, uint64_t lsn) {
  if (rid.page >= pages_.size()) return Status::NotFound("bad page");
  Page& page = pages_[rid.page];
  if (rid.slot >= page.num_slots()) return Status::NotFound("bad slot");
  if (!page.dead(rid.slot)) {
    page.MarkDead(rid.slot);
    --num_tuples_;
    total_bytes_ -= page.SlotLength(rid.slot);
  }
  page.StampLsn(lsn);
  return Status::OK();
}

Status HeapFile::GetEncoded(const Rid& rid, const uint8_t** data,
                            uint32_t* len) const {
  if (rid.page >= pages_.size()) return Status::NotFound("bad page");
  const Page& page = pages_[rid.page];
  if (rid.slot >= page.num_slots()) return Status::NotFound("bad slot");
  std::tie(*data, *len) = page.SlotBytes(rid.slot);
  return Status::OK();
}

Result<Tuple> HeapFile::Get(const Rid& rid) const {
  if (rid.page >= pages_.size()) return Status::NotFound("bad page");
  return pages_[rid.page].Read(rid.slot);
}

bool HeapFile::IsDead(const Rid& rid) const {
  if (rid.page >= pages_.size()) return true;
  const Page& page = pages_[rid.page];
  if (rid.slot >= page.num_slots()) return true;
  return page.dead(rid.slot);
}

bool HeapFile::Iterator::NextEncoded(const uint8_t** data, uint32_t* len,
                                     Rid* rid) {
  while (page_ < file_->pages_.size()) {
    const Page& p = file_->pages_[page_];
    if (slot_ < p.num_slots()) {
      if (p.dead(slot_)) {
        ++slot_;
        continue;
      }
      std::tie(*data, *len) = p.SlotBytes(slot_);
      if (rid != nullptr) {
        *rid = Rid{static_cast<uint32_t>(page_), static_cast<uint32_t>(slot_)};
      }
      ++slot_;
      return true;
    }
    ++page_;
    slot_ = 0;
  }
  return false;
}

bool HeapFile::Iterator::Next(Tuple* tuple, Rid* rid) {
  const uint8_t* data;
  uint32_t len;
  if (!NextEncoded(&data, &len, rid)) return false;
  Result<Tuple> t = WireReader(data, len).GetTuple();
  if (!t.ok()) return false;  // pages are never corrupt in-memory
  *tuple = t.MoveValueOrDie();
  return true;
}

void HeapFile::SerializeTo(WireWriter* w) const {
  w->PutU32(static_cast<uint32_t>(pages_.size()));
  for (const Page& page : pages_) {
    w->PutI64(static_cast<int64_t>(page.lsn()));
    w->PutU32(static_cast<uint32_t>(page.num_slots()));
    for (size_t s = 0; s < page.num_slots(); ++s) {
      w->PutU8(page.dead(s) ? 1 : 0);
      const auto [bytes, len] = page.SlotBytes(s);
      w->PutU32(len);
      for (uint32_t i = 0; i < len; ++i) w->PutU8(bytes[i]);
    }
  }
}

Status HeapFile::SerializeFrom(WireReader* r) {
  pages_.clear();
  num_tuples_ = 0;
  total_bytes_ = 0;
  TANGO_ASSIGN_OR_RETURN(const uint32_t npages, r->GetU32());
  for (uint32_t p = 0; p < npages; ++p) {
    pages_.emplace_back(page_size_);
    Page& page = pages_.back();
    TANGO_ASSIGN_OR_RETURN(const int64_t lsn, r->GetI64());
    page.StampLsn(static_cast<uint64_t>(lsn));
    TANGO_ASSIGN_OR_RETURN(const uint32_t nslots, r->GetU32());
    for (uint32_t s = 0; s < nslots; ++s) {
      TANGO_ASSIGN_OR_RETURN(const uint8_t dead, r->GetU8());
      TANGO_ASSIGN_OR_RETURN(const uint32_t len, r->GetU32());
      std::vector<uint8_t> bytes(len);
      for (uint32_t i = 0; i < len; ++i) {
        TANGO_ASSIGN_OR_RETURN(bytes[i], r->GetU8());
      }
      // Force: reconstruction must restore the exact page boundaries even
      // where rewrites grew a page past its nominal capacity.
      page.AppendForce(bytes);
      if (dead != 0) {
        page.MarkDead(s);
      } else {
        ++num_tuples_;
        total_bytes_ += len;
      }
    }
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace tango
