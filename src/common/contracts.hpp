// Tiered contract checking (Core Guidelines I.6/I.8 style).
//
// Every contract macro belongs to one of two tiers:
//
//   fast   EXPLORA_EXPECTS / EXPLORA_ENSURES / EXPLORA_ASSERT (+ _MSG)
//          cheap O(1) guards that stay on in production builds;
//   audit  EXPLORA_AUDIT (+ _MSG)
//          expensive whole-range invariants (NaN sweeps, probability
//          simplexes, SHAP additivity) meant for tests and debugging.
//
// Two knobs select what actually runs:
//
//   EXPLORA_CHECK_LEVEL (macro, build time) - the compiled *ceiling*:
//     0 = off    every macro expands to nothing; conditions are never
//                evaluated, so they must be side-effect free (enforced by
//                tools/lint_determinism.py);
//     1 = fast   fast tier compiled in, audit tier compiled out;
//     2 = audit  both tiers compiled in (the default).
//     Select via -DEXPLORA_CHECK_LEVEL=off|fast|audit at configure time.
//
//   check_level() (runtime, below the ceiling) - compiled-in checks are
//     additionally gated on one relaxed atomic load, so tests can raise the
//     level to audit and benchmarks can drop it to off without rebuilding.
//     Defaults to fast.
//
// A violation builds a ContractViolation carrying the failed expression and
// an optional value-carrying message, then invokes the installed failure
// handler. The default handler prints and aborts; tests install a throwing
// handler (see ScopedContractHandler) so violations are assertable without
// death tests. A handler that returns normally still aborts: code after a
// contract may rely on the checked condition.
//
// Contract conditions are evaluated exactly once when their tier is active
// and not at all otherwise - never twice.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "common/format.hpp"

#ifndef EXPLORA_CHECK_LEVEL
#define EXPLORA_CHECK_LEVEL 2
#endif

namespace explora::contracts {

enum class CheckLevel : int { kOff = 0, kFast = 1, kAudit = 2 };

/// The compiled ceiling of this translation unit.
inline constexpr CheckLevel kCompiledCheckLevel =
    static_cast<CheckLevel>(EXPLORA_CHECK_LEVEL);

/// Everything a failed contract knows about itself.
struct ContractViolation {
  const char* kind;      ///< "precondition", "postcondition", "invariant", "audit"
  const char* expr;      ///< the stringized condition
  const char* file;
  int line;
  std::string message;   ///< value-carrying detail ("" for plain macros)
};

/// May throw to unwind into a test; returning normally leads to abort().
using ContractHandler = void (*)(const ContractViolation&);

namespace detail {

// Relaxed: a runtime toggle through which no data is published.
inline std::atomic<int> g_check_level{static_cast<int>(CheckLevel::kFast)};
inline std::atomic<ContractHandler> g_handler{nullptr};

}  // namespace detail

/// Runtime check level (never observed above the per-TU compiled ceiling).
[[nodiscard]] inline CheckLevel check_level() noexcept {
  return static_cast<CheckLevel>(
      detail::g_check_level.load(std::memory_order_relaxed));
}

inline void set_check_level(CheckLevel level) noexcept {
  detail::g_check_level.store(static_cast<int>(level),
                              std::memory_order_relaxed);
}

/// Installs `handler` for all subsequent violations; returns the previous
/// handler (nullptr = the print-and-abort default).
inline ContractHandler set_contract_handler(ContractHandler handler) noexcept {
  return detail::g_handler.exchange(handler, std::memory_order_acq_rel);
}

[[nodiscard]] inline ContractHandler contract_handler() noexcept {
  return detail::g_handler.load(std::memory_order_acquire);
}

/// Dispatches a violation to the installed handler; aborts if the handler
/// declines to throw (or none is installed). [[noreturn]] is honest: the
/// only non-aborting exit is an exception.
[[noreturn]] inline void contract_failure(const char* kind, const char* expr,
                                          const char* file, int line,
                                          std::string message = {}) {
  ContractViolation violation{kind, expr, file, line, std::move(message)};
  if (ContractHandler handler = contract_handler()) {
    handler(violation);
  }
  std::fprintf(stderr, "[explora] %s violated: (%s) at %s:%d%s%s\n",
               violation.kind, violation.expr, violation.file, violation.line,
               violation.message.empty() ? "" : " - ",
               violation.message.c_str());
  std::abort();
}

/// Best-effort misuse detector for process-global override slots (the
/// runtime check level and the failure handler).
/// The slots themselves stay lock-free atomics/pointers that any thread
/// may *read*; what is not supported is two threads *installing* scoped
/// overrides concurrently — the restores would interleave and resurrect a
/// stale value. Each slot owns one SingleThreadScope; enter() fires a
/// fast-tier contract when a scope opens on a second thread while another
/// thread's scope is active (nested scopes on one thread stay fine).
class SingleThreadScope {
 public:
  /// @param what guard name used in the violation message.
  /// May throw through a test-installed contract handler.
  void enter(const char* what) {
    if (active_.load(std::memory_order_acquire) > 0 &&
        owner_.load(std::memory_order_acquire) !=
            std::this_thread::get_id() &&
        check_level() >= CheckLevel::kFast) {
      contract_failure(
          "precondition", "scoped overrides install from a single thread",
          __FILE__, __LINE__,
          common::format("{} opened on a second thread while another "
                         "thread's scope is active",
                         what));
    }
    if (active_.fetch_add(1, std::memory_order_acq_rel) == 0) {
      owner_.store(std::this_thread::get_id(), std::memory_order_release);
    }
  }
  void exit() noexcept { active_.fetch_sub(1, std::memory_order_acq_rel); }

  /// Open-scope count (approximate under concurrency; exact once all
  /// scopes have exited). Lets tests check that every scope was closed.
  [[nodiscard]] int active() const noexcept {
    return active_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<int> active_{0};
  std::atomic<std::thread::id> owner_{};
};

namespace detail {

inline SingleThreadScope g_check_level_scope;
inline SingleThreadScope g_handler_scope;

}  // namespace detail

/// RAII runtime-level override (tests raise to audit, benches drop to
/// off). Install from one thread at a time — worker threads may read the
/// level concurrently, but a second installing thread is a fast-tier
/// contract violation (see SingleThreadScope), so the constructor is not
/// noexcept.
class ScopedCheckLevel {
 public:
  explicit ScopedCheckLevel(CheckLevel level) : previous_(check_level()) {
    detail::g_check_level_scope.enter("ScopedCheckLevel");
    set_check_level(level);
  }
  ~ScopedCheckLevel() {
    set_check_level(previous_);
    detail::g_check_level_scope.exit();
  }
  ScopedCheckLevel(const ScopedCheckLevel&) = delete;
  ScopedCheckLevel& operator=(const ScopedCheckLevel&) = delete;

 private:
  CheckLevel previous_;
};

/// RAII handler override. Same single-installing-thread rule as
/// ScopedCheckLevel.
class ScopedContractHandler {
 public:
  explicit ScopedContractHandler(ContractHandler handler) {
    detail::g_handler_scope.enter("ScopedContractHandler");
    previous_ = set_contract_handler(handler);
  }
  ~ScopedContractHandler() {
    set_contract_handler(previous_);
    detail::g_handler_scope.exit();
  }
  ScopedContractHandler(const ScopedContractHandler&) = delete;
  ScopedContractHandler& operator=(const ScopedContractHandler&) = delete;

 private:
  ContractHandler previous_ = nullptr;
};

// ---- approved numeric helpers ---------------------------------------------
// These are the blessed homes for floating-point comparison; raw float ==
// elsewhere is flagged by tools/lint_determinism.py.

/// |a - b| <= atol + rtol * max(|a|, |b|), false for NaN.
[[nodiscard]] inline bool approx_equal(double a, double b, double atol = 1e-9,
                                       double rtol = 1e-9) noexcept {
  if (std::isnan(a) || std::isnan(b)) return false;
  if (a == b) return true;  // det-ok: float-eq (exact match short-circuit)
  return std::fabs(a - b) <= atol + rtol * std::fmax(std::fabs(a),
                                                     std::fabs(b));
}

/// True when every element is neither NaN nor infinite.
[[nodiscard]] inline bool all_finite(std::span<const double> values) noexcept {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// True when every element is finite and >= 0.
[[nodiscard]] inline bool all_non_negative(
    std::span<const double> values) noexcept {
  for (double v : values) {
    if (!(v >= 0.0)) return false;  // also rejects NaN
  }
  return true;
}

/// True when `probs` lies on the probability simplex: every entry in
/// [0, 1] and the sum within `tol` of 1.
[[nodiscard]] inline bool is_probability_simplex(std::span<const double> probs,
                                                 double tol = 1e-9) noexcept {
  double sum = 0.0;
  for (double p : probs) {
    if (!(p >= 0.0 && p <= 1.0)) return false;  // also rejects NaN
    sum += p;
  }
  return approx_equal(sum, 1.0, tol, tol);
}

}  // namespace explora::contracts

// ---- macro layer -----------------------------------------------------------
// Conditions are bound once (EXPLORA_DETAIL_CHECK evaluates `cond` a single
// time) and never evaluated when the tier is compiled out or the runtime
// level is below the tier.

#define EXPLORA_DETAIL_CHECK(tier, kind, cond)                               \
  do {                                                                       \
    if (::explora::contracts::check_level() >=                               \
        ::explora::contracts::CheckLevel::tier) {                            \
      if (!static_cast<bool>(cond)) {                                        \
        ::explora::contracts::contract_failure(kind, #cond, __FILE__,        \
                                               __LINE__);                    \
      }                                                                      \
    }                                                                        \
  } while (false)

#define EXPLORA_DETAIL_CHECK_MSG(tier, kind, cond, ...)                      \
  do {                                                                       \
    if (::explora::contracts::check_level() >=                               \
        ::explora::contracts::CheckLevel::tier) {                            \
      if (!static_cast<bool>(cond)) {                                        \
        ::explora::contracts::contract_failure(                              \
            kind, #cond, __FILE__, __LINE__,                                 \
            ::explora::common::format(__VA_ARGS__));                         \
      }                                                                      \
    }                                                                        \
  } while (false)

#define EXPLORA_DETAIL_NOOP(cond) \
  do {                            \
  } while (false)

#if EXPLORA_CHECK_LEVEL >= 1
#define EXPLORA_EXPECTS(cond) EXPLORA_DETAIL_CHECK(kFast, "precondition", cond)
#define EXPLORA_ENSURES(cond) EXPLORA_DETAIL_CHECK(kFast, "postcondition", cond)
#define EXPLORA_ASSERT(cond) EXPLORA_DETAIL_CHECK(kFast, "invariant", cond)
#define EXPLORA_EXPECTS_MSG(cond, ...) \
  EXPLORA_DETAIL_CHECK_MSG(kFast, "precondition", cond, __VA_ARGS__)
#define EXPLORA_ENSURES_MSG(cond, ...) \
  EXPLORA_DETAIL_CHECK_MSG(kFast, "postcondition", cond, __VA_ARGS__)
#define EXPLORA_ASSERT_MSG(cond, ...) \
  EXPLORA_DETAIL_CHECK_MSG(kFast, "invariant", cond, __VA_ARGS__)
#else
#define EXPLORA_EXPECTS(cond) EXPLORA_DETAIL_NOOP(cond)
#define EXPLORA_ENSURES(cond) EXPLORA_DETAIL_NOOP(cond)
#define EXPLORA_ASSERT(cond) EXPLORA_DETAIL_NOOP(cond)
#define EXPLORA_EXPECTS_MSG(cond, ...) EXPLORA_DETAIL_NOOP(cond)
#define EXPLORA_ENSURES_MSG(cond, ...) EXPLORA_DETAIL_NOOP(cond)
#define EXPLORA_ASSERT_MSG(cond, ...) EXPLORA_DETAIL_NOOP(cond)
#endif

#if EXPLORA_CHECK_LEVEL >= 2
#define EXPLORA_AUDIT(cond) EXPLORA_DETAIL_CHECK(kAudit, "audit", cond)
#define EXPLORA_AUDIT_MSG(cond, ...) \
  EXPLORA_DETAIL_CHECK_MSG(kAudit, "audit", cond, __VA_ARGS__)
#else
#define EXPLORA_AUDIT(cond) EXPLORA_DETAIL_NOOP(cond)
#define EXPLORA_AUDIT_MSG(cond, ...) EXPLORA_DETAIL_NOOP(cond)
#endif
