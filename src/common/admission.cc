#include "common/admission.h"

#include <algorithm>

#include "fault/failpoint.h"

namespace qmatch {

AdmissionPermit& AdmissionPermit::operator=(AdmissionPermit&& other) noexcept {
  if (this != &other) {
    Release();
    controller_ = other.controller_;
    cost_ = other.cost_;
    other.controller_ = nullptr;
    other.cost_ = 0;
  }
  return *this;
}

void AdmissionPermit::Release() noexcept {
  if (controller_ != nullptr) {
    controller_->Release(cost_);
    controller_ = nullptr;
    cost_ = 0;
  }
}

Status AdmissionController::Admit(uint64_t cost, const ExecControl& control,
                                  AdmissionPermit* out) {
  *out = AdmissionPermit();
  if (!enabled()) return Status::OK();
  if (QMATCH_FAILPOINT_FIRED("admission.admit")) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++shed_;
    return Status::Overloaded("admission: injected shed");
  }
  cost = ClampCost(cost);

  std::unique_lock<std::mutex> lock(mutex_);
  // FIFO fairness: even if this request would fit, it must not overtake
  // already-queued waiters.
  if (queue_.empty() && FitsLocked(cost)) {
    inflight_ += cost;
    *out = AdmissionPermit(this, cost);
    return Status::OK();
  }
  if (queue_.size() >= options_.max_queue_depth) {
    ++shed_;
    return Status::Overloaded(
        "admission: pending queue full (depth " +
        std::to_string(queue_.size()) + "), request shed");
  }

  const uint64_t id = ++next_waiter_id_;
  queue_.push_back(Waiter{id, cost});

  auto admissible = [&]() {
    return !queue_.empty() && queue_.front().id == id && FitsLocked(cost);
  };
  auto remove_self = [&]() {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->id == id) {
        queue_.erase(it);
        break;
      }
    }
    // Removing a waiter can unblock the one behind it.
    cv_.notify_all();
  };

  while (!admissible()) {
    StopReason stop = control.Check();
    if (stop != StopReason::kNone) {
      remove_self();
      return stop == StopReason::kCancelled
                 ? Status::Cancelled("admission: cancelled while queued")
                 : Status::DeadlineExceeded(
                       "admission: deadline expired while queued");
    }
    if (control.cancel != nullptr) {
      // No way to wake on token cancellation, so poll.
      auto wake = std::chrono::milliseconds(1);
      if (control.deadline.bounded()) {
        wake = std::min(
            wake, std::chrono::duration_cast<std::chrono::milliseconds>(
                      control.deadline.Remaining()) +
                      std::chrono::milliseconds(1));
      }
      cv_.wait_for(lock, wake);
    } else if (control.deadline.bounded()) {
      cv_.wait_until(lock, control.deadline.when());
    } else {
      cv_.wait(lock);
    }
  }
  queue_.pop_front();
  inflight_ += cost;
  // Our admission may leave room for the next waiter too.
  cv_.notify_all();
  *out = AdmissionPermit(this, cost);
  return Status::OK();
}

void AdmissionController::Release(uint64_t cost) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  inflight_ -= cost;
  cv_.notify_all();
}

double AdmissionController::Pressure() const {
  if (!enabled()) return 0.0;
  std::lock_guard<std::mutex> lock(mutex_);
  double cost_fill = static_cast<double>(inflight_) /
                     static_cast<double>(options_.max_inflight_cost);
  double queue_fill =
      options_.max_queue_depth == 0
          ? (queue_.empty() ? 0.0 : 1.0)
          : static_cast<double>(queue_.size()) /
                static_cast<double>(options_.max_queue_depth);
  double pressure = std::max(cost_fill, queue_fill);
  return pressure > 1.0 ? 1.0 : pressure;
}

uint64_t AdmissionController::inflight_cost() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return inflight_;
}

size_t AdmissionController::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

uint64_t AdmissionController::shed_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_;
}

}  // namespace qmatch
