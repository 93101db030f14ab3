// Tests for the tiered contract layer (common/contracts): throwing-handler
// assertions on real domain invariants, value-carrying messages, runtime
// level gating, and exactly-once condition evaluation.
#include "common/contracts.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "ml/matrix.hpp"
#include "netsim/channel.hpp"
#include "netsim/scenario.hpp"

namespace explora {
namespace {

// Thrown by the test handler so a violation unwinds into EXPECT_THROW
// instead of aborting the process (no death tests needed).
struct ViolationError : std::runtime_error {
  explicit ViolationError(const contracts::ContractViolation& v)
      : std::runtime_error(std::string(v.kind) + ": (" + v.expr + ") " +
                           v.message),
        kind(v.kind),
        expr(v.expr),
        message(v.message) {}
  std::string kind;
  std::string expr;
  std::string message;
};

[[noreturn]] void throwing_handler(const contracts::ContractViolation& v) {
  throw ViolationError(v);
}

// ---------------------------------------------------------------------------
// Handler plumbing
// ---------------------------------------------------------------------------

TEST(Contracts, ScopedHandlerInstallsAndRestores) {
  EXPECT_EQ(contracts::contract_handler(), nullptr);
  {
    contracts::ScopedContractHandler guard(&throwing_handler);
    EXPECT_EQ(contracts::contract_handler(), &throwing_handler);
  }
  EXPECT_EQ(contracts::contract_handler(), nullptr);
}

TEST(Contracts, ViolationCarriesKindExprFileLine) {
  contracts::ScopedContractHandler guard(&throwing_handler);
  try {
    EXPLORA_EXPECTS(1 + 1 == 3);
    FAIL() << "contract should have fired";
  } catch (const ViolationError& e) {
    EXPECT_EQ(e.kind, "precondition");
    EXPECT_EQ(e.expr, "1 + 1 == 3");
    EXPECT_TRUE(e.message.empty());
  }
}

TEST(Contracts, MsgVariantCarriesFormattedValues) {
  contracts::ScopedContractHandler guard(&throwing_handler);
  const int got = 7;
  const int want = 3;
  try {
    EXPLORA_ASSERT_MSG(got <= want, "got {} but the cap is {}", got, want);
    FAIL() << "contract should have fired";
  } catch (const ViolationError& e) {
    EXPECT_EQ(e.kind, "invariant");
    EXPECT_EQ(e.message, "got 7 but the cap is 3");
  }
}

// ---------------------------------------------------------------------------
// Domain invariants fire through the handler
// ---------------------------------------------------------------------------

TEST(Contracts, MatrixShapeMismatchViolatesPrecondition) {
  contracts::ScopedContractHandler guard(&throwing_handler);
  ml::Matrix a(2, 3);
  std::vector<double> x(4, 1.0);  // wrong: needs 3 elements
  std::vector<double> y(2, 0.0);
  try {
    a.multiply(x, y);
    FAIL() << "shape mismatch should have fired";
  } catch (const ViolationError& e) {
    EXPECT_EQ(e.kind, "precondition");
    // The message carries the offending sizes, not just the expression.
    EXPECT_NE(e.message.find('4'), std::string::npos);
    EXPECT_NE(e.message.find('3'), std::string::npos);
  }
}

TEST(Contracts, OversubscribedPrbBudgetViolatesPrecondition) {
  contracts::ScopedContractHandler guard(&throwing_handler);
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {1, 1, 1};
  auto gnb = netsim::make_gnb(scenario);
  netsim::SlicingControl control;
  control.prbs = {30, 30, 30};  // sums to 90 on a 50-PRB carrier
  control.scheduling = {netsim::SchedulerPolicy::kRoundRobin,
                        netsim::SchedulerPolicy::kRoundRobin,
                        netsim::SchedulerPolicy::kRoundRobin};
  try {
    gnb->apply_control(control);
    FAIL() << "oversubscribed budget should have fired";
  } catch (const ViolationError& e) {
    EXPECT_EQ(e.kind, "precondition");
    EXPECT_NE(e.message.find("90"), std::string::npos);
    EXPECT_NE(e.message.find("50"), std::string::npos);
  }
}

TEST(Contracts, EmptyPrbMaskViolatesMalformedControlGate) {
  contracts::ScopedContractHandler guard(&throwing_handler);
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {1, 1, 1};
  auto gnb = netsim::make_gnb(scenario);
  netsim::SlicingControl control;
  control.prbs = {0, 0, 0};  // an all-empty PRB mask allocates nothing
  control.scheduling = {netsim::SchedulerPolicy::kRoundRobin,
                        netsim::SchedulerPolicy::kRoundRobin,
                        netsim::SchedulerPolicy::kRoundRobin};
  try {
    gnb->apply_control(control);
    FAIL() << "empty PRB mask should have fired";
  } catch (const ViolationError& e) {
    EXPECT_EQ(e.kind, "precondition");
    EXPECT_NE(e.message.find("malformed"), std::string::npos);
  }
}

TEST(Contracts, UnknownSchedulerIdViolatesMalformedControlGate) {
  contracts::ScopedContractHandler guard(&throwing_handler);
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {1, 1, 1};
  auto gnb = netsim::make_gnb(scenario);
  netsim::SlicingControl control;
  control.prbs = {20, 20, 10};
  control.scheduling = {static_cast<netsim::SchedulerPolicy>(99),
                        netsim::SchedulerPolicy::kRoundRobin,
                        netsim::SchedulerPolicy::kRoundRobin};
  try {
    gnb->apply_control(control);
    FAIL() << "unknown scheduler id should have fired";
  } catch (const ViolationError& e) {
    EXPECT_EQ(e.kind, "precondition");
    EXPECT_NE(e.message.find("malformed"), std::string::npos);
  }
}

TEST(Contracts, OutOfRangeCqiViolatesPrecondition) {
  contracts::ScopedContractHandler guard(&throwing_handler);
  EXPECT_THROW((void)netsim::cqi_spectral_efficiency(99), ViolationError);
  EXPECT_THROW((void)netsim::cqi_bytes_per_prb(16), ViolationError);
  // The full 4-bit CQI range stays valid (0 = out of coverage).
  EXPECT_NO_THROW((void)netsim::cqi_spectral_efficiency(0));
  EXPECT_NO_THROW((void)netsim::cqi_spectral_efficiency(15));
}

// ---------------------------------------------------------------------------
// Runtime level gating
// ---------------------------------------------------------------------------

TEST(Contracts, AuditChecksAreOffAtFastLevel) {
  contracts::ScopedContractHandler guard(&throwing_handler);
  contracts::ScopedCheckLevel fast(contracts::CheckLevel::kFast);
  EXPECT_NO_THROW(EXPLORA_AUDIT(false));
  contracts::ScopedCheckLevel audit(contracts::CheckLevel::kAudit);
  EXPECT_THROW(EXPLORA_AUDIT(false), ViolationError);
}

TEST(Contracts, RuntimeOffDisablesFastChecks) {
  contracts::ScopedContractHandler guard(&throwing_handler);
  contracts::ScopedCheckLevel off(contracts::CheckLevel::kOff);
  EXPECT_NO_THROW(EXPLORA_EXPECTS(false));
  EXPECT_NO_THROW(EXPLORA_ENSURES(false));
  EXPECT_NO_THROW(EXPLORA_ASSERT(false));
}

TEST(Contracts, ScopedCheckLevelRestores) {
  const auto before = contracts::check_level();
  {
    contracts::ScopedCheckLevel audit(contracts::CheckLevel::kAudit);
    EXPECT_EQ(contracts::check_level(), contracts::CheckLevel::kAudit);
  }
  EXPECT_EQ(contracts::check_level(), before);
}

TEST(Contracts, ConditionEvaluatesExactlyOnce) {
  int counter = 0;
  // Side effects in contract conditions are banned in src/ (they vanish in
  // off builds); here the side effect IS the instrument.
  EXPLORA_EXPECTS((++counter, true));
  EXPECT_EQ(counter, 1);
  {
    contracts::ScopedCheckLevel off(contracts::CheckLevel::kOff);
    EXPLORA_EXPECTS((++counter, true));
    EXPECT_EQ(counter, 1);  // runtime-off: condition never evaluated
  }
  contracts::ScopedContractHandler guard(&throwing_handler);
  EXPECT_THROW(EXPLORA_EXPECTS((++counter, false)), ViolationError);
  EXPECT_EQ(counter, 2);  // failing path still evaluates exactly once
}

// ---------------------------------------------------------------------------
// Approved numeric helpers
// ---------------------------------------------------------------------------

TEST(Contracts, ApproxEqual) {
  EXPECT_TRUE(contracts::approx_equal(1.0, 1.0));
  EXPECT_TRUE(contracts::approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(contracts::approx_equal(1.0, 1.1));
  EXPECT_FALSE(contracts::approx_equal(1.0, std::nan("")));
  EXPECT_TRUE(contracts::approx_equal(1e6, 1e6 * (1.0 + 1e-10), 0.0, 1e-9));
}

TEST(Contracts, AllFinite) {
  const std::vector<double> good{0.0, -1.5, 3e8};
  EXPECT_TRUE(contracts::all_finite(good));
  const std::vector<double> with_nan{0.0, std::nan("")};
  EXPECT_FALSE(contracts::all_finite(with_nan));
  const std::vector<double> with_inf{0.0, HUGE_VAL};
  EXPECT_FALSE(contracts::all_finite(with_inf));
}

TEST(Contracts, AllNonNegative) {
  const std::vector<double> good{0.0, 1.0, 2.5};
  EXPECT_TRUE(contracts::all_non_negative(good));
  const std::vector<double> negative{0.0, -0.1};
  EXPECT_FALSE(contracts::all_non_negative(negative));
  const std::vector<double> with_nan{std::nan("")};
  EXPECT_FALSE(contracts::all_non_negative(with_nan));
}

TEST(Contracts, IsProbabilitySimplex) {
  const std::vector<double> uniform{0.25, 0.25, 0.25, 0.25};
  EXPECT_TRUE(contracts::is_probability_simplex(uniform));
  const std::vector<double> short_sum{0.2, 0.2};
  EXPECT_FALSE(contracts::is_probability_simplex(short_sum));
  const std::vector<double> negative{1.5, -0.5};
  EXPECT_FALSE(contracts::is_probability_simplex(negative));
}

TEST(Contracts, CompiledCeilingIsAuditInDefaultBuild) {
  EXPECT_EQ(contracts::kCompiledCheckLevel, contracts::CheckLevel::kAudit);
}

// ---------------------------------------------------------------------------
// Thread-awareness of the scoped overrides. The suite name starts with
// "Parallel" so the tsan preset's test filter picks these up.
// ---------------------------------------------------------------------------

TEST(ParallelContractScopes, WorkersReadLevelAndHandlerRaceFree) {
  // Install once on this thread, then hammer the read paths from pool
  // workers: reads are lock-free atomics and must be tsan-clean against
  // the scoped install/restore.
  contracts::ScopedContractHandler guard(&throwing_handler);
  contracts::ScopedCheckLevel audit(contracts::CheckLevel::kAudit);
  common::ThreadPool pool(4);
  std::atomic<int> checks{0};
  pool.parallel_for(0, 256, 8, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      EXPLORA_ASSERT(begin <= end);
      (void)contracts::check_level();
      (void)contracts::contract_handler();
      checks.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(checks.load(), 256);
}

TEST(ParallelContractScopes, NestedScopesOnOneThreadAreFine) {
  contracts::ScopedContractHandler guard(&throwing_handler);
  contracts::ScopedCheckLevel outer(contracts::CheckLevel::kFast);
  {
    contracts::ScopedCheckLevel inner(contracts::CheckLevel::kAudit);
    EXPECT_EQ(contracts::check_level(), contracts::CheckLevel::kAudit);
  }
  EXPECT_EQ(contracts::check_level(), contracts::CheckLevel::kFast);
}

TEST(InterleaveScope, NestedEntersOnOneVirtualThreadAreFine) {
  contracts::ScopedContractHandler guard(&throwing_handler);
  contracts::SingleThreadScope scope;
  // One worker thread nests two scopes; the owner check only rejects a
  // second thread, so neither enter fires and the scope ends balanced.
  bool balanced_inside = false;
  std::thread worker([&] {
    scope.enter("outer");
    scope.enter("inner");
    balanced_inside = scope.active() == 2;
    scope.exit();
    scope.exit();
  });
  worker.join();
  EXPECT_TRUE(balanced_inside);
  EXPECT_EQ(scope.active(), 0);
}

TEST(ParallelContractScopes, SecondThreadLevelInstallCaught) {
  contracts::ScopedContractHandler guard(&throwing_handler);
  contracts::ScopedCheckLevel held(contracts::CheckLevel::kFast);
  bool caught = false;
  std::thread other([&] {
    try {
      contracts::ScopedCheckLevel competing(contracts::CheckLevel::kAudit);
      FAIL() << "cross-thread install should have fired";
    } catch (const ViolationError& e) {
      caught = e.message.find("ScopedCheckLevel") != std::string::npos;
    }
  });
  other.join();
  EXPECT_TRUE(caught);
  // The rejected install changed nothing.
  EXPECT_EQ(contracts::check_level(), contracts::CheckLevel::kFast);
}

TEST(ParallelContractScopes, SecondThreadHandlerInstallCaught) {
  contracts::ScopedContractHandler held(&throwing_handler);
  bool caught = false;
  std::thread other([&] {
    try {
      contracts::ScopedContractHandler competing(&throwing_handler);
      FAIL() << "cross-thread install should have fired";
    } catch (const ViolationError& e) {
      caught = e.message.find("ScopedContractHandler") != std::string::npos;
    }
  });
  other.join();
  EXPECT_TRUE(caught);
  EXPECT_EQ(contracts::contract_handler(), &throwing_handler);
}

TEST(ParallelContractScopes, RejectedEnterLeavesTheScopeBalanced) {
  contracts::ScopedContractHandler guard(&throwing_handler);
  contracts::SingleThreadScope scope;
  scope.enter("holder");
  bool caught = false;
  std::thread rejected([&] {
    try {
      scope.enter("second thread");
      FAIL() << "cross-thread enter should have fired";
    } catch (const ViolationError&) {
      caught = true;
    }
  });
  rejected.join();
  EXPECT_TRUE(caught);
  EXPECT_EQ(scope.active(), 1);  // the rejected enter counted nothing
  scope.exit();
  EXPECT_EQ(scope.active(), 0);

  // With the holder gone, another thread may take the scope.
  bool entered = false;
  std::thread next([&] {
    scope.enter("next holder");
    entered = scope.active() == 1;
    scope.exit();
  });
  next.join();
  EXPECT_TRUE(entered);
  EXPECT_EQ(scope.active(), 0);
}

}  // namespace
}  // namespace explora
