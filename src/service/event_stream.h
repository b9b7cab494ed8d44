// The tenant event stream: the streaming service's single source of truth.
//
// Every input the online service reacts to — tenant registration and
// de-registration, activity drift, SLA feedback, group failures, and the
// cycle boundaries themselves — is a TenantEvent in one totally-ordered
// stream. The stream serializes to a canonical little-endian binary log
// ("TEVTLG01"), and the service is a pure function of that log: replaying
// it reproduces every cycle decision byte-identically (see
// streaming_service.h for the full determinism contract).

#ifndef THRIFTY_SERVICE_EVENT_STREAM_H_
#define THRIFTY_SERVICE_EVENT_STREAM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "workload/query_log.h"
#include "workload/tenant.h"

namespace thrifty {

/// \brief Index of a tenant-group within a deployment plan (mirrors
/// placement/deployment_plan.h without pulling the full header in).
using ServiceGroupId = int32_t;

/// \brief What happened. Wire values are part of the log format — append
/// only, never renumber.
enum class EventType : uint8_t {
  /// A tenant joined the service; carries its spec and the query history
  /// it was on-boarded with (the advisor needs history to consolidate).
  kRegister = 1,
  /// A tenant left; its group is re-consolidated next cycle.
  kDeregister = 2,
  /// The tenant's observed activity changed: its stored history is thinned
  /// to every `stride`-th entry, so the next cycle's drift screening sees
  /// the new fingerprint.
  kActivityDrift = 3,
  /// Aggregate SLA feedback since the last cycle: `queries` served, of
  /// which `violations` missed their SLA. Feeds the violation-budget
  /// controller.
  kSlaReport = 4,
  /// A node of this group's MPPDBs failed without auto-replacement; the
  /// group is re-consolidated next cycle.
  kGroupFailure = 5,
  /// A re-consolidation cycle boundary. In live mode the service emits one
  /// whenever the attached clock crosses the cycle period; in replay the
  /// recorded mark pins the boundary, so replay never consults a clock.
  kCycleMark = 6,
};

/// \brief One event of the stream. Only the fields of the event's type are
/// meaningful (and serialized); the rest stay default.
struct TenantEvent {
  EventType type = EventType::kCycleMark;
  /// Dense position in the stream, stamped by the service at ingest (0, 1,
  /// 2, ...). Decoding rejects gaps and reorderings.
  uint64_t sequence = 0;
  /// Event time (ms). Must be non-decreasing along the stream.
  SimTime time = 0;
  /// Subject tenant; kInvalidTenantId for kSlaReport / kGroupFailure /
  /// kCycleMark.
  TenantId tenant = kInvalidTenantId;

  /// kRegister: the joining tenant's spec (spec.id == tenant).
  TenantSpec spec;
  /// kRegister: on-boarding query history, sorted by submit time.
  std::vector<QueryLogEntry> log_entries;
  /// kActivityDrift: keep every stride-th stored entry (>= 1).
  uint32_t stride = 1;
  /// kSlaReport: queries served / SLA violations since the last report.
  uint32_t queries = 0;
  uint32_t violations = 0;
  /// kGroupFailure: the failed group.
  ServiceGroupId group = -1;
};

/// \brief Convenience constructors (sequence is stamped at ingest).
TenantEvent MakeRegisterEvent(SimTime time, const TenantSpec& spec,
                              std::vector<QueryLogEntry> log_entries);
TenantEvent MakeDeregisterEvent(SimTime time, TenantId tenant);
TenantEvent MakeActivityDriftEvent(SimTime time, TenantId tenant,
                                   uint32_t stride);
TenantEvent MakeSlaReportEvent(SimTime time, uint32_t queries,
                               uint32_t violations);
TenantEvent MakeGroupFailureEvent(SimTime time, ServiceGroupId group);
TenantEvent MakeCycleMarkEvent(SimTime time);

/// \brief Appends one record in canonical binary form (no magic).
void AppendEventRecord(const TenantEvent& event, std::string* out);

/// \brief Serializes a whole log: 8-byte magic "TEVTLG01" followed by the
/// events' records in order. The encoding is canonical — two logs encode to
/// the same bytes iff they hold the same events.
std::string EncodeEventLog(const std::vector<TenantEvent>& events);

/// \brief Parses a log written by EncodeEventLog.
///
/// Strictly validated: rejects a bad magic, a record truncated mid-field
/// (reporting the byte offset), sequences that are not dense from zero,
/// time regressions, unknown event types, unknown benchmark suites, and
/// zero drift strides — each with a precise error message, so a corrupt or
/// hand-edited log never silently replays differently.
Result<std::vector<TenantEvent>> DecodeEventLog(std::string_view bytes);

/// \brief FNV-1a fingerprint of EncodeEventLog(events) — the stream
/// identity the soak gates compare between live runs and replays.
uint64_t EventLogFingerprint(const std::vector<TenantEvent>& events);

}  // namespace thrifty

#endif  // THRIFTY_SERVICE_EVENT_STREAM_H_
