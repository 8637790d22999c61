#include "serve/batcher.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace bootleg::serve {

MicroBatcher::MicroBatcher(BatcherOptions options, BatchFn batch_fn,
                           ReloadFn reload_fn, ServerCounters* counters)
    : options_(options),
      batch_fn_(std::move(batch_fn)),
      reload_fn_(std::move(reload_fn)),
      counters_(counters),
      queue_wait_hist_(obs::MetricsRegistry::Global().GetHistogram(
          "serve.queue_wait_us")),
      deadline_slack_hist_(obs::MetricsRegistry::Global().GetHistogram(
          "serve.deadline_slack_us")),
      queue_depth_gauge_(
          obs::MetricsRegistry::Global().GetGauge("serve.queue_depth")),
      shed_counter_(obs::MetricsRegistry::Global().GetCounter("serve.shed")) {
  const int n = options_.workers < 1 ? 1 : options_.workers;
  workers_.reserve(static_cast<size_t>(n));
  for (int w = 0; w < n; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

MicroBatcher::~MicroBatcher() { Shutdown(); }

std::future<util::StatusOr<SentenceResult>> MicroBatcher::Submit(
    std::string text) {
  auto promise =
      std::make_shared<std::promise<util::StatusOr<SentenceResult>>>();
  std::future<util::StatusOr<SentenceResult>> future = promise->get_future();
  SubmitAsync(std::move(text), /*raw_text=*/false, kNoDeadline,
              [promise](util::StatusOr<SentenceResult> result) {
                promise->set_value(std::move(result));
              });
  return future;
}

void MicroBatcher::SubmitAsync(std::string text, bool raw_text,
                               std::chrono::steady_clock::time_point deadline,
                               Callback done) {
  const auto now = std::chrono::steady_clock::now();
  // Fast-path rejects are decided under the lock but completed outside it:
  // the callback may re-enter arbitrary code (event-loop posts).
  util::Status reject = util::Status::OK();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      reject = util::Status::FailedPrecondition("server is shutting down");
    } else if (queue_.size() >= options_.max_queue) {
      // Every arrival counts in `requests`, whatever its fate, so the stats
      // accounting invariant requests ≥ rejected + shed + served holds.
      if (counters_ != nullptr) {
        counters_->requests.fetch_add(1, std::memory_order_relaxed);
        counters_->rejected.fetch_add(1, std::memory_order_relaxed);
      }
      reject = util::Status::Unavailable(
          "request queue full (" + std::to_string(options_.max_queue) +
          " waiting); retry later");
    } else if (deadline <= now) {
      // Arrived already expired (client set an impossible budget): shed at
      // the door rather than at dequeue.
      if (counters_ != nullptr) {
        counters_->requests.fetch_add(1, std::memory_order_relaxed);
        counters_->shed.fetch_add(1, std::memory_order_relaxed);
      }
      shed_counter_->Add();
      reject = util::Status::DeadlineExceeded("deadline expired before enqueue");
    } else {
      Request req;
      req.text = std::move(text);
      req.raw_text = raw_text;
      req.done = std::move(done);
      req.enqueued = now;
      req.deadline = deadline;
      queue_.push_back(std::move(req));
      queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
      if (counters_ != nullptr) {
        counters_->requests.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (!reject.ok()) {
    done(std::move(reject));
    return;
  }
  cv_.notify_one();
}

size_t MicroBatcher::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void MicroBatcher::RequestReload() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    reload_requested_ = true;
  }
  cv_.notify_one();
}

void MicroBatcher::SubmitExclusive(ExclusiveFn fn, ExclusiveDone done) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_) {
      exclusive_.emplace_back(std::move(fn), std::move(done));
      cv_.notify_one();
      return;
    }
  }
  done(util::Status::FailedPrecondition("server is shutting down"));
}

void MicroBatcher::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  // Swap under the lock so concurrent Shutdown callers join exactly once.
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    to_join.swap(workers_);
  }
  for (std::thread& t : to_join) t.join();
}

void MicroBatcher::WorkerLoop(int worker) {
  while (true) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return stopping_ || reload_requested_ || !exclusive_.empty() ||
             !queue_.empty();
    });

    // Reloads apply at batch boundaries — including idle ones, so a SIGHUP
    // on a quiet server does not wait for the next request.
    if (reload_requested_) {
      reload_requested_ = false;
      lock.unlock();
      if (reload_fn_) {
        std::unique_lock<std::shared_mutex> exclusive(reload_mu_);
        const util::Status st = reload_fn_();
        if (st.ok()) {
          if (counters_ != nullptr) {
            counters_->reloads.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          BOOTLEG_LOG(Warning) << "hot reload failed: " << st.ToString()
                               << " (serving previous weights)";
        }
      }
      continue;
    }

    // Exclusive mutations (live index updates) run like reloads: one at a
    // time, at a batch boundary, with every worker excluded. Tasks accepted
    // before Shutdown drain even while stopping.
    if (!exclusive_.empty()) {
      auto task = std::move(exclusive_.front());
      exclusive_.pop_front();
      lock.unlock();
      util::Status st;
      {
        std::unique_lock<std::shared_mutex> exclusive(reload_mu_);
        st = task.first ? task.first() : util::Status::OK();
      }
      task.second(std::move(st));
      continue;
    }

    // The wait predicate held and no boundary work is pending, so an empty
    // queue means we are stopping with nothing left to drain. Otherwise take
    // whatever is queued now: no worker idles while a request waits.
    if (queue_.empty()) return;

    // Deadline-aware dequeue: expired requests are shed (completed with
    // DeadlineExceeded, no batch slot) so overload compute goes only to
    // replies a client is still waiting for.
    const auto now = std::chrono::steady_clock::now();
    std::vector<Request> batch;
    std::vector<Request> shed;
    while (!queue_.empty() &&
           static_cast<int>(batch.size()) < options_.max_batch) {
      Request req = std::move(queue_.front());
      queue_.pop_front();
      if (req.deadline <= now) {
        shed.push_back(std::move(req));
      } else {
        batch.push_back(std::move(req));
      }
    }
    queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
    lock.unlock();

    if (!shed.empty()) {
      if (counters_ != nullptr) {
        counters_->shed.fetch_add(static_cast<int64_t>(shed.size()),
                                  std::memory_order_relaxed);
      }
      shed_counter_->Add(static_cast<int64_t>(shed.size()));
      for (Request& r : shed) {
        r.done(util::Status::DeadlineExceeded(
            "deadline expired while queued; request shed"));
      }
    }
    if (batch.empty()) continue;

    {
      std::shared_lock<std::shared_mutex> shared(reload_mu_);
      RunBatch(std::move(batch), worker);
    }
  }
}

void MicroBatcher::RunBatch(std::vector<Request> batch, int worker) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<BatchItem> items;
  items.reserve(batch.size());
  bool all_deadlines = true;
  for (Request& r : batch) {
    queue_wait_hist_->Record(
        std::chrono::duration_cast<std::chrono::microseconds>(start -
                                                              r.enqueued)
            .count());
    if (r.deadline != kNoDeadline) {
      // Remaining budget at dispatch: how close shedding decisions are
      // cutting it. Shrinking slack is the leading indicator of overload.
      deadline_slack_hist_->Record(
          std::chrono::duration_cast<std::chrono::microseconds>(r.deadline -
                                                                start)
              .count());
    } else {
      all_deadlines = false;
    }
    BatchItem item;
    item.text = std::move(r.text);
    item.raw_text = r.raw_text;
    item.deadline = r.deadline;
    items.push_back(std::move(item));
  }

  std::vector<SentenceResult> results;
  {
    OBS_SPAN("serve.batch");
    results = batch_fn_(items, worker);
  }
  if (counters_ != nullptr) {
    counters_->batches.fetch_add(1, std::memory_order_relaxed);
    counters_->batched_sentences.fetch_add(
        static_cast<int64_t>(batch.size()), std::memory_order_relaxed);
  }
  if (results.empty() && all_deadlines) {
    // The engine abandoned the batch between model stages: every member's
    // deadline expired mid-compute. These are sheds like the dequeue-time
    // ones, counted separately as reclaims (compute was started and
    // reclaimed, not avoided).
    const int64_t n = static_cast<int64_t>(batch.size());
    if (counters_ != nullptr) {
      counters_->shed.fetch_add(n, std::memory_order_relaxed);
      counters_->reclaimed.fetch_add(n, std::memory_order_relaxed);
    }
    shed_counter_->Add(n);
    for (Request& r : batch) {
      r.done(util::Status::DeadlineExceeded(
          "deadline expired mid-batch; compute reclaimed"));
    }
    return;
  }
  if (results.size() != batch.size()) {
    for (Request& r : batch) {
      r.done(
          util::Status::Internal("batch handler returned wrong result count"));
    }
    return;
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].done(std::move(results[i]));
  }
}

}  // namespace bootleg::serve
