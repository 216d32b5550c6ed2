// Per-tenant token-bucket admission control for the serving front end.
//
// The server admits a request only when its tenant's bucket holds a token;
// otherwise the request is shed *before* touching the index -- a fast
// "shed" response whose cost is independent of index load, so one noisy
// tenant cannot queue everyone else behind its excess traffic
// (tests/test_net_server.cc asserts both the isolation and the bounded
// shed latency).
//
// Buckets refill continuously at `rate` tokens/second up to `burst`.
// Time is passed in by the caller (steady-clock nanoseconds), which keeps
// the policy deterministic under test: the admission tests drive a bucket
// through an explicit timeline instead of sleeping.
//
// Thread model: every event loop of the server calls Admit concurrently.
// Overrides are installed before that starts (the server does it in its
// constructor), so Admit reads them without a lock: a tenant whose limit
// is unlimited is admitted with no lock and no allocation. Every other
// Admit takes the limiter's mutex. The bucket table is capped: tenants
// past kMaxTenantBuckets that run on the default limit share one
// overflow bucket, so a scan of wire tenant ids cannot grow memory
// without bound.

#ifndef I3_NET_TOKEN_BUCKET_H_
#define I3_NET_TOKEN_BUCKET_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace i3 {
namespace net {

/// \brief One continuously-refilling bucket.
class TokenBucket {
 public:
  /// \param rate tokens per second; <= 0 means "unlimited" (always admits).
  /// \param burst bucket capacity (and initial fill); floored at 1 token
  ///        when rate limiting is active so a quiet tenant can always send.
  TokenBucket(double rate, double burst)
      : rate_(rate), burst_(rate > 0 ? std::max(burst, 1.0) : 0.0) {}

  bool unlimited() const { return rate_ <= 0; }

  /// \brief Takes one token if available. `now_ns` must be monotone
  /// non-decreasing across calls (steady clock).
  bool TryAcquire(uint64_t now_ns) {
    if (unlimited()) return true;
    if (last_ns_ == 0) {
      last_ns_ = now_ns;
      tokens_ = burst_;
    }
    if (now_ns > last_ns_) {
      tokens_ = std::min(
          burst_, tokens_ + (now_ns - last_ns_) * 1e-9 * rate_);
      last_ns_ = now_ns;
    }
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

  double tokens() const { return tokens_; }

 private:
  double rate_;
  double burst_;
  double tokens_ = 0.0;
  uint64_t last_ns_ = 0;
};

/// \brief Admission limits of one tenant.
struct TenantLimit {
  double rate = 0.0;   ///< tokens/second; <= 0 = unlimited
  double burst = 0.0;  ///< bucket capacity
};

/// \brief The per-tenant limiter: a default limit plus explicit per-tenant
/// overrides. Buckets are created lazily on a tenant's first request.
class TenantRateLimiter {
 public:
  /// Most tenants with a bucket of their own under the default limit.
  static constexpr size_t kMaxTenantBuckets = 1024;

  explicit TenantRateLimiter(TenantLimit default_limit = {})
      : default_limit_(default_limit) {}

  /// Installs an override for `tenant`. Not safe while Admit runs on
  /// another thread: install every override before serving starts.
  void SetLimit(uint32_t tenant, TenantLimit limit) {
    limits_[tenant] = limit;
    buckets_.erase(tenant);  // rebuilt with the new limit on next use
  }

  /// \brief True if `tenant` may proceed at `now_ns`; false = shed.
  bool Admit(uint32_t tenant, uint64_t now_ns) {
    auto lim = limits_.find(tenant);
    const bool overridden = lim != limits_.end();
    const TenantLimit limit = overridden ? lim->second : default_limit_;
    if (limit.rate <= 0) return true;  // unlimited: no bucket needed
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = buckets_.find(tenant);
    if (it == buckets_.end()) {
      if (!overridden && buckets_.size() >= kMaxTenantBuckets) {
        return overflow_.TryAcquire(now_ns);
      }
      it = buckets_
               .emplace(tenant, TokenBucket(limit.rate, limit.burst))
               .first;
    }
    return it->second.TryAcquire(now_ns);
  }

  /// Buckets in the table (the overflow bucket not counted).
  size_t bucket_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return buckets_.size();
  }

 private:
  const TenantLimit default_limit_;
  /// Written by SetLimit only, before concurrent Admit calls.
  std::unordered_map<uint32_t, TenantLimit> limits_;
  mutable std::mutex mutex_;
  std::unordered_map<uint32_t, TokenBucket> buckets_;
  /// Shared by default-limit tenants once buckets_ is full.
  TokenBucket overflow_{default_limit_.rate, default_limit_.burst};
};

}  // namespace net
}  // namespace i3

#endif  // I3_NET_TOKEN_BUCKET_H_
