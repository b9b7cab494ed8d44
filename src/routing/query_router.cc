#include "routing/query_router.h"

#include <cassert>
#include <string>

namespace thrifty {

GroupRouter::GroupRouter(GroupId group_id,
                         std::vector<MppdbInstance*> mppdbs)
    : group_id_(group_id), mppdbs_(std::move(mppdbs)) {
  assert(!mppdbs_.empty());
}

namespace {

bool IsOnline(const MppdbInstance* m) {
  return m != nullptr && m->state() == InstanceState::kOnline;
}

}  // namespace

Result<RouteDecision> GroupRouter::Route(TenantId tenant) const {
  auto record = [this](MppdbInstance* m, RouteKind kind) {
    ++counters_[kind];
    return RouteDecision{m, kind};
  };

  // Dedicated elastic-scaling instance takes precedence: the tenant-group
  // "excludes all the activities of the removed tenant" (§7.5).
  auto dedicated_it = dedicated_.find(tenant);
  if (dedicated_it != dedicated_.end() && IsOnline(dedicated_it->second)) {
    return record(dedicated_it->second, RouteKind::kDedicated);
  }

  // Line 1-2: tenant already has queries running somewhere.
  for (MppdbInstance* m : mppdbs_) {
    if (IsOnline(m) && m->IsServingTenant(tenant)) {
      return record(m, RouteKind::kTenantAffinity);
    }
  }
  // Line 4-5: MPPDB_0 free.
  MppdbInstance* tuning = mppdbs_[0];
  if (IsOnline(tuning) && tuning->IsFree()) {
    return record(tuning, RouteKind::kTuningFree);
  }
  // Line 7-8: any other free MPPDB.
  for (size_t j = 1; j < mppdbs_.size(); ++j) {
    if (IsOnline(mppdbs_[j]) && mppdbs_[j]->IsFree()) {
      return record(mppdbs_[j], RouteKind::kOtherFree);
    }
  }
  // Line 10: overflow to MPPDB_0 for concurrent processing.
  if (IsOnline(tuning)) {
    return record(tuning, RouteKind::kOverflow);
  }
  // Tuning MPPDB offline (e.g. failed mid-replacement): overflow to any
  // online replica instead of rejecting the query.
  for (MppdbInstance* m : mppdbs_) {
    if (IsOnline(m)) return record(m, RouteKind::kOverflow);
  }
  return Status::Unavailable("tenant-group " + std::to_string(group_id_) +
                             " has no online MPPDB");
}

void GroupRouter::AssignDedicated(TenantId tenant, MppdbInstance* instance) {
  dedicated_[tenant] = instance;
}

void GroupRouter::RemoveDedicated(TenantId tenant) {
  dedicated_.erase(tenant);
}

Status QueryRouter::AddGroup(GroupId group_id,
                             std::vector<MppdbInstance*> mppdbs,
                             const std::vector<TenantId>& tenants) {
  if (mppdbs.empty()) {
    return Status::InvalidArgument("group needs at least one MPPDB");
  }
  auto [it, inserted] =
      groups_.emplace(group_id, GroupRouter(group_id, std::move(mppdbs)));
  if (!inserted) {
    return Status::AlreadyExists("group " + std::to_string(group_id) +
                                 " already registered");
  }
  for (TenantId t : tenants) {
    auto [tit, tenant_inserted] = tenant_group_.emplace(t, group_id);
    if (!tenant_inserted) {
      return Status::AlreadyExists("tenant " + std::to_string(t) +
                                   " already assigned to group " +
                                   std::to_string(tit->second));
    }
  }
  return Status::OK();
}

Status QueryRouter::RemoveGroup(GroupId group_id) {
  auto it = groups_.find(group_id);
  if (it == groups_.end()) {
    return Status::NotFound("group " + std::to_string(group_id) +
                            " not registered with the router");
  }
  groups_.erase(it);
  for (auto tit = tenant_group_.begin(); tit != tenant_group_.end();) {
    if (tit->second == group_id) {
      tit = tenant_group_.erase(tit);
    } else {
      ++tit;
    }
  }
  return Status::OK();
}

Result<RouteDecision> QueryRouter::Route(TenantId tenant) const {
  auto it = tenant_group_.find(tenant);
  if (it == tenant_group_.end()) {
    return Status::NotFound("tenant " + std::to_string(tenant) +
                            " not registered with the router");
  }
  return groups_.at(it->second).Route(tenant);
}

Result<GroupRouter*> QueryRouter::RouterFor(TenantId tenant) {
  auto it = tenant_group_.find(tenant);
  if (it == tenant_group_.end()) {
    return Status::NotFound("tenant " + std::to_string(tenant) +
                            " not registered with the router");
  }
  return &groups_.at(it->second);
}

Result<GroupRouter*> QueryRouter::RouterForGroup(GroupId group_id) {
  auto it = groups_.find(group_id);
  if (it == groups_.end()) {
    return Status::NotFound("group " + std::to_string(group_id) +
                            " not registered with the router");
  }
  return &it->second;
}

}  // namespace thrifty
