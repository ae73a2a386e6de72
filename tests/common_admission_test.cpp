// Unit tests for cost-based admission control (immediate admit, FIFO
// queueing with backpressure, typed kOverloaded shed, deadline/cancel while
// queued, cost clamping, pressure).

#include "common/admission.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "fault/failpoint.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace qmatch {
namespace {

// Sanitizer-scaled sleeps/deadlines: these tests race timed waiters
// against short sleeps, and instrumented builds stretch both sides.
using test::Scaled;

AdmissionOptions Options(uint64_t capacity, size_t queue_depth) {
  AdmissionOptions options;
  options.max_inflight_cost = capacity;
  options.max_queue_depth = queue_depth;
  return options;
}

/// Orders the test against its waiters explicitly instead of by sleeping:
/// returns once exactly `depth` requests are queued.
void AwaitQueueDepth(const AdmissionController& admission, size_t depth) {
  while (admission.queue_depth() != depth) std::this_thread::yield();
}

TEST(AdmissionControllerTest, DisabledControllerAdmitsEverythingInstantly) {
  AdmissionController admission;  // max_inflight_cost = 0 → disabled
  EXPECT_FALSE(admission.enabled());
  AdmissionPermit permit;
  EXPECT_TRUE(admission.Admit(1u << 30, ExecControl{}, &permit).ok());
  EXPECT_FALSE(permit.held());  // pass-through: nothing to release
  EXPECT_EQ(admission.Pressure(), 0.0);
}

TEST(AdmissionControllerTest, AdmitsWithinCapacityAndReleasesOnPermitDeath) {
  AdmissionController admission(Options(100, 4));
  {
    AdmissionPermit a;
    ASSERT_TRUE(admission.Admit(60, ExecControl{}, &a).ok());
    EXPECT_TRUE(a.held());
    EXPECT_EQ(admission.inflight_cost(), 60u);
    AdmissionPermit b;
    ASSERT_TRUE(admission.Admit(40, ExecControl{}, &b).ok());
    EXPECT_EQ(admission.inflight_cost(), 100u);
  }
  EXPECT_EQ(admission.inflight_cost(), 0u);
}

TEST(AdmissionControllerTest, OversizedRequestIsClampedToCapacity) {
  AdmissionController admission(Options(100, 4));
  AdmissionPermit permit;
  ASSERT_TRUE(admission.Admit(1u << 20, ExecControl{}, &permit).ok());
  EXPECT_EQ(permit.cost(), 100u);  // runs alone, but runs
}

TEST(AdmissionControllerTest, QueueFullShedsWithTypedOverloaded) {
  AdmissionController admission(Options(10, 0));  // no queue at all
  AdmissionPermit held;
  ASSERT_TRUE(admission.Admit(10, ExecControl{}, &held).ok());
  AdmissionPermit shed;
  Status status = admission.Admit(5, ExecControl{}, &shed);
  EXPECT_EQ(status.code(), StatusCode::kOverloaded);
  EXPECT_FALSE(shed.held());
  EXPECT_EQ(admission.shed_total(), 1u);
}

TEST(AdmissionControllerTest, DeadlineExpiresWhileQueued) {
  AdmissionController admission(Options(10, 4));
  AdmissionPermit held;
  ASSERT_TRUE(admission.Admit(10, ExecControl{}, &held).ok());
  ExecControl control;
  control.deadline = Deadline::After(Scaled(std::chrono::milliseconds(30)));
  AdmissionPermit queued;
  Status status = admission.Admit(5, control, &queued);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(admission.queue_depth(), 0u);  // the waiter removed itself
}

TEST(AdmissionControllerTest, CancellationInterruptsTheQueueWait) {
  AdmissionController admission(Options(10, 4));
  AdmissionPermit held;
  ASSERT_TRUE(admission.Admit(10, ExecControl{}, &held).ok());
  CancellationToken token;
  ExecControl control;
  control.cancel = &token;
  std::thread canceller([&token]() {
    std::this_thread::sleep_for(Scaled(std::chrono::milliseconds(20)));
    token.Cancel();
  });
  AdmissionPermit queued;
  Status status = admission.Admit(5, control, &queued);
  canceller.join();
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(admission.queue_depth(), 0u);
}

TEST(AdmissionControllerTest, QueuedRequestAdmitsWhenCapacityFrees) {
  AdmissionController admission(Options(10, 4));
  auto held = std::make_unique<AdmissionPermit>();
  ASSERT_TRUE(admission.Admit(10, ExecControl{}, held.get()).ok());
  std::atomic<bool> admitted{false};
  std::thread waiter([&]() {
    AdmissionPermit permit;
    ExecControl control;
    control.deadline = Deadline::After(std::chrono::seconds(10));
    ASSERT_TRUE(admission.Admit(5, control, &permit).ok());
    admitted.store(true);
  });
  AwaitQueueDepth(admission, 1);
  EXPECT_FALSE(admitted.load());
  held.reset();  // release capacity → the waiter admits
  waiter.join();
  EXPECT_TRUE(admitted.load());
}

TEST(AdmissionControllerTest, FifoOrderIsPreservedAcrossWaiters) {
  AdmissionController admission(Options(10, 8));
  auto held = std::make_unique<AdmissionPermit>();
  ASSERT_TRUE(admission.Admit(10, ExecControl{}, held.get()).ok());
  std::vector<int> admit_order;
  std::mutex order_mutex;
  std::vector<std::thread> waiters;
  for (int id = 0; id < 3; ++id) {
    // Waiter `id` starts only once its predecessors are queued, so queue
    // positions are deterministic.
    AwaitQueueDepth(admission, static_cast<size_t>(id));
    waiters.emplace_back([&, id]() {
      AdmissionPermit permit;
      ExecControl control;
      control.deadline = Deadline::After(std::chrono::seconds(10));
      ASSERT_TRUE(admission.Admit(10, control, &permit).ok());
      std::lock_guard<std::mutex> lock(order_mutex);
      admit_order.push_back(id);
    });
  }
  AwaitQueueDepth(admission, 3);  // every waiter queued before release
  held.reset();
  for (std::thread& t : waiters) t.join();
  ASSERT_EQ(admit_order.size(), 3u);
  EXPECT_EQ(admit_order, (std::vector<int>{0, 1, 2}));
}

TEST(AdmissionControllerTest, PressureTracksCostAndQueueFill) {
  AdmissionController admission(Options(100, 2));
  EXPECT_EQ(admission.Pressure(), 0.0);
  AdmissionPermit permit;
  ASSERT_TRUE(admission.Admit(50, ExecControl{}, &permit).ok());
  EXPECT_DOUBLE_EQ(admission.Pressure(), 0.5);
}

#if QMATCH_FAULT_ENABLED
TEST(AdmissionControllerTest, AdmitFailpointInjectsShed) {
  AdmissionController admission(Options(1u << 20, 16));
  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kError;
  fault::ScopedFailpoint fp("admission.admit", spec);
  AdmissionPermit permit;
  Status status = admission.Admit(1, ExecControl{}, &permit);
  EXPECT_EQ(status.code(), StatusCode::kOverloaded);
  EXPECT_EQ(admission.shed_total(), 1u);
}
#endif

}  // namespace
}  // namespace qmatch
