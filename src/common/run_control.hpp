// Run control — deadlines, cooperative cancellation, and per-stage budgets.
//
// A RunControl is the one handle a long-running DFT job is steered with. It
// carries a monotonic deadline (global and per-stage), a cancellation flag
// settable from another thread or a signal handler, and a check counter. The
// same nullable-pointer pattern as obs::Telemetry applies: every engine
// option struct carries a `RunControl* run_control` defaulting to nullptr,
// which means "run to completion"; the disabled path costs one pointer
// compare at each (already amortized) probe site.
//
// Probe cadence contract: engines consult the handle at *amortized*
// boundaries only — once per 64-pattern campaign batch and per 256 faults
// inside one, per ATPG fault, per 256 PODEM backtracks, per 1024 SAT
// conflicts — never per event. On expiry
// or cancellation an engine returns a well-formed PARTIAL result (patterns
// generated so far, faults graded so far, aborted accounting intact) tagged
// with a StageOutcome; it never throws for control-flow reasons.
//
// Ownership and thread-safety: the caller owns the RunControl (stack or
// static); the toolkit never allocates one. request_cancel() is safe from
// any thread and from a signal handler (single lock-free atomic store);
// poll() is safe from any thread; begin_stage()/end_stage() and the
// configuration setters belong to the single orchestrating thread, before
// or between parallel regions.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aidft {

/// Why a probe asked the caller to stop (kNone = keep going).
enum class StopReason : std::uint8_t { kNone, kCancelled, kTimedOut };

/// How a stage of a flow (or a standalone engine run) ended. Recorded per
/// stage in DftFlowReport and on every engine result struct.
enum class StageOutcome : std::uint8_t {
  kCompleted,  // ran to its natural end
  kTimedOut,   // stopped at a deadline/stage budget; result is partial
  kCancelled,  // stopped on request_cancel(); result is partial
  kFailed,     // threw aidft::Error; downstream stages may still run
  kSkipped,    // never started (budget already exhausted when reached)
};

const char* to_string(StageOutcome outcome);
const char* to_string(StopReason reason);

/// Maps a stop reason observed mid-run onto the outcome of the stopped work.
inline StageOutcome outcome_from(StopReason reason) {
  switch (reason) {
    case StopReason::kCancelled: return StageOutcome::kCancelled;
    case StopReason::kTimedOut: return StageOutcome::kTimedOut;
    case StopReason::kNone: break;
  }
  return StageOutcome::kCompleted;
}

class RunControl {
 public:
  using Clock = std::chrono::steady_clock;

  RunControl() = default;
  RunControl(const RunControl&) = delete;
  RunControl& operator=(const RunControl&) = delete;

  /// Absolute monotonic deadline for the whole run.
  void set_deadline(Clock::time_point deadline) {
    const std::int64_t ns = to_ns(deadline);
    global_deadline_ns_.store(ns, std::memory_order_relaxed);
    effective_deadline_ns_.store(ns, std::memory_order_relaxed);
  }

  /// Deadline = now + seconds. Negative or zero budgets expire immediately.
  void set_time_budget(double seconds) {
    set_deadline(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds)));
  }

  /// Caps the wall time of the named flow stage (see run_dft_flow's stage
  /// keys: "drc", "atpg", "compression", "lbist", "transition", ...). The
  /// effective deadline inside that stage is min(global, stage start +
  /// budget); a stage-budget expiry stops only that stage — downstream
  /// stages still run.
  void set_stage_budget(std::string stage, double seconds) {
    for (auto& [name, budget] : stage_budgets_) {
      if (name == stage) {
        budget = seconds;
        return;
      }
    }
    stage_budgets_.emplace_back(std::move(stage), seconds);
  }

  /// Requests cooperative cancellation. Safe from any thread and from a
  /// signal handler; sticky — every later probe reports kCancelled.
  void request_cancel() {
    cancel_requests_.fetch_add(1, std::memory_order_relaxed);
    cancelled_.store(true, std::memory_order_relaxed);
  }

  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Deterministic stop for tests and bisection: the n-th check() from now
  /// (counting this call's armed state, not poll()s) flips cancellation.
  /// Orchestration checks happen at well-defined serial boundaries (campaign
  /// rounds, flow stages, ATPG faults), so the stop point is reproducible.
  void cancel_after_checks(std::uint64_t n) {
    cancel_countdown_.store(static_cast<std::int64_t>(n),
                            std::memory_order_relaxed);
  }

  /// Passive probe: one relaxed load plus (when a deadline is armed) one
  /// clock read. Safe from worker threads; counts toward checks().
  StopReason poll() const {
    checks_.fetch_add(1, std::memory_order_relaxed);
    if (cancelled_.load(std::memory_order_relaxed)) {
      return StopReason::kCancelled;
    }
    const std::int64_t ddl =
        effective_deadline_ns_.load(std::memory_order_relaxed);
    if (ddl != kNoDeadline && now_ns() >= ddl) return StopReason::kTimedOut;
    return StopReason::kNone;
  }

  /// Counting probe for serial orchestration boundaries. Identical to
  /// poll() except that it also drives the cancel_after_checks() countdown.
  StopReason check() {
    const std::int64_t left = cancel_countdown_.load(std::memory_order_relaxed);
    if (left > 0 &&
        cancel_countdown_.fetch_sub(1, std::memory_order_relaxed) == 1) {
      request_cancel();
    }
    return poll();
  }

  /// Enters a named stage: the effective deadline becomes min(global, now +
  /// stage budget). Unknown stage names keep the global deadline. Call from
  /// the orchestrating thread before spawning stage workers.
  void begin_stage(std::string_view stage) {
    std::int64_t ddl = global_deadline_ns_.load(std::memory_order_relaxed);
    for (const auto& [name, budget] : stage_budgets_) {
      if (name == stage) {
        const std::int64_t stage_ddl =
            now_ns() + static_cast<std::int64_t>(budget * 1e9);
        ddl = std::min(ddl, stage_ddl);
        break;
      }
    }
    effective_deadline_ns_.store(ddl, std::memory_order_relaxed);
  }

  /// Leaves the current stage, restoring the global deadline (so a stage
  /// budget expiry does not bleed into downstream stages).
  void end_stage() {
    effective_deadline_ns_.store(
        global_deadline_ns_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }

  /// Seconds until the currently effective deadline (negative = expired;
  /// +inf when no deadline is armed). Diagnostic only.
  double remaining_seconds() const {
    const std::int64_t ddl =
        effective_deadline_ns_.load(std::memory_order_relaxed);
    if (ddl == kNoDeadline) {
      return std::numeric_limits<double>::infinity();
    }
    return static_cast<double>(ddl - now_ns()) * 1e-9;
  }

  /// Total probes served (poll + check), across all threads.
  std::uint64_t checks() const {
    return checks_.load(std::memory_order_relaxed);
  }

  /// Number of request_cancel() calls observed.
  std::uint64_t cancellations() const {
    return cancel_requests_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();

  static std::int64_t now_ns() { return to_ns(Clock::now()); }

  static std::int64_t to_ns(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }

  std::atomic<bool> cancelled_{false};
  std::atomic<std::int64_t> global_deadline_ns_{kNoDeadline};
  std::atomic<std::int64_t> effective_deadline_ns_{kNoDeadline};
  mutable std::atomic<std::uint64_t> checks_{0};
  std::atomic<std::uint64_t> cancel_requests_{0};
  std::atomic<std::int64_t> cancel_countdown_{0};
  std::vector<std::pair<std::string, double>> stage_budgets_;
};

}  // namespace aidft
