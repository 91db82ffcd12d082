// The deterministic parallel-for primitive the experiment runner and the
// oracle search are built on.
//
// Tasks must be independent: each task may only write state it owns (for
// sweeps, the result slot addressed by its task index). Under that contract
// every result is bit-identical regardless of thread count or scheduling
// order, because combining happens in task-index order after the barrier.
#pragma once

#include <cstddef>
#include <functional>

namespace dcs::exp {

/// Resolves a requested worker count: 0 means "all hardware threads"
/// (always at least 1).
[[nodiscard]] std::size_t resolve_threads(std::size_t requested) noexcept;

/// Runs fn(0) .. fn(count - 1) across `threads` workers (0 = all hardware
/// threads). Every index is attempted even when earlier tasks throw; after
/// the barrier the exception with the lowest task index is rethrown, so
/// failure behaviour is as deterministic as success behaviour.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace dcs::exp
