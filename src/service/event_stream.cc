#include "service/event_stream.h"

#include <bit>
#include <cstring>

#include "common/fnv.h"

namespace thrifty {

namespace {

constexpr char kMagic[8] = {'T', 'E', 'V', 'T', 'L', 'G', '0', '1'};

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutI32(int32_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v), out);
}

void PutI64(int64_t v, std::string* out) {
  PutU64(static_cast<uint64_t>(v), out);
}

void PutF64(double v, std::string* out) {
  PutU64(std::bit_cast<uint64_t>(v), out);
}

/// Cursor over the encoded bytes; every read checks bounds and reports the
/// offset of the first missing byte on truncation.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  size_t offset() const { return offset_; }
  bool AtEnd() const { return offset_ == bytes_.size(); }

  Status Read(void* dst, size_t n, const char* what) {
    if (bytes_.size() - offset_ < n) {
      return Status::InvalidArgument(
          "event log truncated: " + std::string(what) + " needs " +
          std::to_string(n) + " bytes at offset " + std::to_string(offset_) +
          " but only " + std::to_string(bytes_.size() - offset_) + " remain");
    }
    std::memcpy(dst, bytes_.data() + offset_, n);
    offset_ += n;
    return Status::OK();
  }

  Result<uint8_t> U8(const char* what) {
    uint8_t v;
    THRIFTY_RETURN_NOT_OK(Read(&v, 1, what));
    return v;
  }
  Result<uint32_t> U32(const char* what) {
    unsigned char raw[4];
    THRIFTY_RETURN_NOT_OK(Read(raw, 4, what));
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(raw[i]) << (8 * i);
    return v;
  }
  Result<uint64_t> U64(const char* what) {
    unsigned char raw[8];
    THRIFTY_RETURN_NOT_OK(Read(raw, 8, what));
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(raw[i]) << (8 * i);
    return v;
  }
  Result<int32_t> I32(const char* what) {
    THRIFTY_ASSIGN_OR_RETURN(uint32_t v, U32(what));
    return static_cast<int32_t>(v);
  }
  Result<int64_t> I64(const char* what) {
    THRIFTY_ASSIGN_OR_RETURN(uint64_t v, U64(what));
    return static_cast<int64_t>(v);
  }
  Result<double> F64(const char* what) {
    THRIFTY_ASSIGN_OR_RETURN(uint64_t v, U64(what));
    return std::bit_cast<double>(v);
  }

 private:
  std::string_view bytes_;
  size_t offset_ = 0;
};

}  // namespace

TenantEvent MakeRegisterEvent(SimTime time, const TenantSpec& spec,
                              std::vector<QueryLogEntry> log_entries) {
  TenantEvent e;
  e.type = EventType::kRegister;
  e.time = time;
  e.tenant = spec.id;
  e.spec = spec;
  e.log_entries = std::move(log_entries);
  return e;
}

TenantEvent MakeDeregisterEvent(SimTime time, TenantId tenant) {
  TenantEvent e;
  e.type = EventType::kDeregister;
  e.time = time;
  e.tenant = tenant;
  return e;
}

TenantEvent MakeActivityDriftEvent(SimTime time, TenantId tenant,
                                   uint32_t stride) {
  TenantEvent e;
  e.type = EventType::kActivityDrift;
  e.time = time;
  e.tenant = tenant;
  e.stride = stride;
  return e;
}

TenantEvent MakeSlaReportEvent(SimTime time, uint32_t queries,
                               uint32_t violations) {
  TenantEvent e;
  e.type = EventType::kSlaReport;
  e.time = time;
  e.queries = queries;
  e.violations = violations;
  return e;
}

TenantEvent MakeGroupFailureEvent(SimTime time, ServiceGroupId group) {
  TenantEvent e;
  e.type = EventType::kGroupFailure;
  e.time = time;
  e.group = group;
  return e;
}

TenantEvent MakeCycleMarkEvent(SimTime time) {
  TenantEvent e;
  e.type = EventType::kCycleMark;
  e.time = time;
  return e;
}

void AppendEventRecord(const TenantEvent& event, std::string* out) {
  PutU8(static_cast<uint8_t>(event.type), out);
  PutU64(event.sequence, out);
  PutI64(event.time, out);
  PutI32(event.tenant, out);
  switch (event.type) {
    case EventType::kRegister: {
      PutI32(event.spec.requested_nodes, out);
      PutF64(event.spec.data_gb, out);
      PutU8(static_cast<uint8_t>(event.spec.suite), out);
      PutI32(event.spec.time_zone_offset_hours, out);
      PutI32(event.spec.max_users, out);
      PutU32(static_cast<uint32_t>(event.log_entries.size()), out);
      for (const QueryLogEntry& entry : event.log_entries) {
        PutI64(entry.submit_time, out);
        PutI32(entry.template_id, out);
        PutI64(entry.observed_latency, out);
        PutI32(entry.batch_id, out);
      }
      break;
    }
    case EventType::kDeregister:
      break;
    case EventType::kActivityDrift:
      PutU32(event.stride, out);
      break;
    case EventType::kSlaReport:
      PutU32(event.queries, out);
      PutU32(event.violations, out);
      break;
    case EventType::kGroupFailure:
      PutI32(event.group, out);
      break;
    case EventType::kCycleMark:
      break;
  }
}

std::string EncodeEventLog(const std::vector<TenantEvent>& events) {
  std::string out(kMagic, sizeof(kMagic));
  for (const TenantEvent& event : events) AppendEventRecord(event, &out);
  return out;
}

Result<std::vector<TenantEvent>> DecodeEventLog(std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        "event log has bad magic: expected \"TEVTLG01\" in the first 8 "
        "bytes");
  }
  Reader reader(bytes.substr(sizeof(kMagic)));
  std::vector<TenantEvent> events;
  while (!reader.AtEnd()) {
    TenantEvent event;
    THRIFTY_ASSIGN_OR_RETURN(uint8_t raw_type, reader.U8("record type"));
    if (raw_type < static_cast<uint8_t>(EventType::kRegister) ||
        raw_type > static_cast<uint8_t>(EventType::kCycleMark)) {
      return Status::InvalidArgument(
          "event log record " + std::to_string(events.size()) +
          " has unknown event type " + std::to_string(raw_type));
    }
    event.type = static_cast<EventType>(raw_type);
    THRIFTY_ASSIGN_OR_RETURN(event.sequence, reader.U64("sequence"));
    if (event.sequence != events.size()) {
      return Status::InvalidArgument(
          "event log record " + std::to_string(events.size()) +
          " has non-contiguous sequence " + std::to_string(event.sequence) +
          " (expected " + std::to_string(events.size()) + ")");
    }
    THRIFTY_ASSIGN_OR_RETURN(event.time, reader.I64("time"));
    if (!events.empty() && event.time < events.back().time) {
      return Status::InvalidArgument(
          "event log record " + std::to_string(events.size()) +
          " regresses in time: " + std::to_string(event.time) + " < " +
          std::to_string(events.back().time));
    }
    THRIFTY_ASSIGN_OR_RETURN(event.tenant, reader.I32("tenant id"));
    switch (event.type) {
      case EventType::kRegister: {
        event.spec.id = event.tenant;
        THRIFTY_ASSIGN_OR_RETURN(event.spec.requested_nodes,
                                 reader.I32("requested nodes"));
        THRIFTY_ASSIGN_OR_RETURN(event.spec.data_gb, reader.F64("data gb"));
        THRIFTY_ASSIGN_OR_RETURN(uint8_t raw_suite,
                                 reader.U8("benchmark suite"));
        if (raw_suite > static_cast<uint8_t>(QuerySuite::kTpcds)) {
          return Status::InvalidArgument(
              "event log record " + std::to_string(events.size()) +
              " has unknown benchmark suite " + std::to_string(raw_suite));
        }
        event.spec.suite = static_cast<QuerySuite>(raw_suite);
        THRIFTY_ASSIGN_OR_RETURN(event.spec.time_zone_offset_hours,
                                 reader.I32("time zone offset"));
        THRIFTY_ASSIGN_OR_RETURN(event.spec.max_users,
                                 reader.I32("max users"));
        THRIFTY_ASSIGN_OR_RETURN(uint32_t count,
                                 reader.U32("log entry count"));
        event.log_entries.reserve(count);
        for (uint32_t i = 0; i < count; ++i) {
          QueryLogEntry entry;
          THRIFTY_ASSIGN_OR_RETURN(entry.submit_time,
                                   reader.I64("entry submit time"));
          THRIFTY_ASSIGN_OR_RETURN(entry.template_id,
                                   reader.I32("entry template id"));
          THRIFTY_ASSIGN_OR_RETURN(entry.observed_latency,
                                   reader.I64("entry latency"));
          THRIFTY_ASSIGN_OR_RETURN(entry.batch_id, reader.I32("entry batch"));
          event.log_entries.push_back(entry);
        }
        break;
      }
      case EventType::kDeregister:
        break;
      case EventType::kActivityDrift: {
        THRIFTY_ASSIGN_OR_RETURN(event.stride, reader.U32("drift stride"));
        if (event.stride == 0) {
          return Status::InvalidArgument(
              "event log record " + std::to_string(events.size()) +
              " has zero drift stride");
        }
        break;
      }
      case EventType::kSlaReport: {
        THRIFTY_ASSIGN_OR_RETURN(event.queries, reader.U32("query count"));
        THRIFTY_ASSIGN_OR_RETURN(event.violations,
                                 reader.U32("violation count"));
        break;
      }
      case EventType::kGroupFailure: {
        THRIFTY_ASSIGN_OR_RETURN(event.group, reader.I32("group id"));
        break;
      }
      case EventType::kCycleMark:
        break;
    }
    events.push_back(std::move(event));
  }
  return events;
}

uint64_t EventLogFingerprint(const std::vector<TenantEvent>& events) {
  return Fnv1a64(EncodeEventLog(events));
}

}  // namespace thrifty
