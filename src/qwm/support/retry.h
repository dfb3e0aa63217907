// Shared bounded-retry policy with jittered exponential backoff.
//
// Used by qwm_load to retry the protocol's transient error codes:
// attempt k sleeps backoff_ms * 2^min(k, max_exponent) * [0.5, 1.5),
// with the jitter drawn from a caller-owned splitmix64 stream so
// concurrent retriers decorrelate instead of re-stampeding the target,
// and so a seeded test reproduces the exact sleep schedule.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

namespace qwm::support {

struct RetryPolicy {
  /// Additional attempts after the first (0 = no retry).
  int retries = 0;
  /// Base backoff; attempt k sleeps backoff_ms * 2^min(k, max_exponent)
  /// scaled by the jitter factor.
  double backoff_ms = 5.0;
  /// Exponent cap, so long retry ladders stop doubling.
  int max_exponent = 10;
};

/// splitmix64 step — the repo-wide seeded mixer (same constants as the
/// fault-injection and workload generators).
inline std::uint64_t retry_next_rand(std::uint64_t* s) {
  *s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = *s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Sleep duration of retry attempt `attempt` (0-based), advancing `rng`.
inline double retry_backoff_ms(const RetryPolicy& p, int attempt,
                               std::uint64_t* rng) {
  const double jitter =
      0.5 + static_cast<double>(retry_next_rand(rng) % 1024) / 1024.0;
  const double scale = static_cast<double>(
      1ull << static_cast<unsigned>(std::min(attempt, p.max_exponent)));
  return p.backoff_ms * scale * jitter;
}

/// Runs `try_fn` until it yields a result `retryable` rejects or the
/// retry budget is exhausted, sleeping the jittered backoff between
/// attempts. `retry_count`, when non-null, accumulates the retries
/// actually performed (the observability counter qwm_load reports).
template <typename TryFn, typename RetryableFn>
auto retry_with_backoff(const RetryPolicy& p, std::uint64_t* rng,
                        std::uint64_t* retry_count, TryFn&& try_fn,
                        RetryableFn&& retryable) -> decltype(try_fn()) {
  auto result = try_fn();
  for (int attempt = 0; attempt < p.retries; ++attempt) {
    if (!retryable(result)) return result;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        retry_backoff_ms(p, attempt, rng)));
    if (retry_count != nullptr) ++*retry_count;
    result = try_fn();
  }
  return result;
}

}  // namespace qwm::support
