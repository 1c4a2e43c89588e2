#include "fabric/lease.hpp"

#include <algorithm>
#include <cmath>

#include "sim/contracts.hpp"

namespace acute::fabric {

using sim::expects;

LeaseTable::LeaseTable(std::vector<bool> leasable, LeaseConfig config)
    : config_(config),
      done_(leasable.size(), false),
      retries_(leasable.size(), 0) {
  expects(config_.batch > 0, "LeaseTable: batch must be positive");
  expects(config_.lease_timeout_ms > 0,
          "LeaseTable: lease timeout must be positive");
  expects(config_.expiry_backoff >= 1.0,
          "LeaseTable: expiry backoff must be >= 1");
  for (std::size_t i = 0; i < leasable.size(); ++i) {
    if (leasable[i]) {
      pending_.insert(pending_.end(), i);
      ++leasable_;
    } else {
      done_[i] = true;  // restored or capped: a completion is a duplicate
    }
  }
}

std::uint64_t LeaseTable::timeout_for(const Lease& lease) const {
  std::uint32_t worst = 0;
  for (std::size_t i = lease.begin; i < lease.end; ++i) {
    worst = std::max(worst, retries_[i]);
  }
  const double grown = static_cast<double>(config_.lease_timeout_ms) *
                       std::pow(config_.expiry_backoff, worst);
  // The cap never undercuts the base timeout, which hello_ok announces and
  // workers pace their sends by.
  const double capped = std::min(
      grown, static_cast<double>(
                 std::max(config_.max_timeout_ms, config_.lease_timeout_ms)));
  return static_cast<std::uint64_t>(capped);
}

std::optional<Lease> LeaseTable::grant(std::uint64_t now_ms) {
  if (pending_.empty()) return std::nullopt;
  Lease lease;
  lease.id = next_lease_id_++;
  const auto first = pending_.begin();
  lease.begin = *first;
  lease.end = lease.begin;
  // Lowest contiguous pending run, at most `batch` long.
  auto it = first;
  while (it != pending_.end() && *it == lease.end &&
         lease.end - lease.begin < config_.batch) {
    ++lease.end;
    ++it;
  }
  pending_.erase(first, it);
  lease.deadline_ms = now_ms + timeout_for(lease);
  leases_.emplace(lease.id, lease);
  return lease;
}

bool LeaseTable::heartbeat(std::uint64_t lease_id, std::uint64_t now_ms) {
  const auto it = leases_.find(lease_id);
  if (it == leases_.end()) return false;
  it->second.deadline_ms = now_ms + timeout_for(it->second);
  return true;
}

bool LeaseTable::complete(std::size_t index) {
  expects(index < done_.size(), "LeaseTable::complete index out of range");
  if (done_[index]) return false;  // duplicate (the re-lease race)
  done_[index] = true;
  ++done_count_;
  // The index may sit in pending_ when its lease expired before this
  // (late) completion arrived — claim it so it is never leased again.
  pending_.erase(index);
  return true;
}

void LeaseTable::finish(std::uint64_t lease_id) {
  const auto it = leases_.find(lease_id);
  if (it == leases_.end()) return;  // already expired/revoked
  for (std::size_t i = it->second.begin; i < it->second.end; ++i) {
    if (!done_[i]) pending_.insert(i);  // defensive: worker skipped it
  }
  leases_.erase(it);
}

std::vector<Lease> LeaseTable::expire(std::uint64_t now_ms) {
  std::vector<Lease> expired;
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.deadline_ms > now_ms) {
      ++it;
      continue;
    }
    for (std::size_t i = it->second.begin; i < it->second.end; ++i) {
      if (!done_[i]) {
        ++retries_[i];
        pending_.insert(i);
      }
    }
    expired.push_back(it->second);
    it = leases_.erase(it);
  }
  return expired;
}

void LeaseTable::revoke(std::uint64_t lease_id) {
  const auto it = leases_.find(lease_id);
  if (it == leases_.end()) return;
  for (std::size_t i = it->second.begin; i < it->second.end; ++i) {
    if (!done_[i]) {
      ++retries_[i];
      pending_.insert(i);
    }
  }
  leases_.erase(it);
}

std::optional<std::uint64_t> LeaseTable::next_deadline_ms() const {
  std::optional<std::uint64_t> soonest;
  for (const auto& [id, lease] : leases_) {
    if (!soonest.has_value() || lease.deadline_ms < *soonest) {
      soonest = lease.deadline_ms;
    }
  }
  return soonest;
}

}  // namespace acute::fabric
