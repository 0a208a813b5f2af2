#include "sim/simulator.h"

#include <algorithm>
#include <map>
#include <queue>
#include <unordered_map>

#include "util/check.h"

namespace gpd::sim {

namespace {

struct Action {
  std::int64_t time = 0;
  std::uint64_t seq = 0;  // tie-breaker for determinism
  ProcessId proc = 0;
  bool isTimer = false;
  int timerTag = 0;
  SimMessage message;
  EventId sendEvent;  // for deliveries: the sender's event

  // Min-heap ordering.
  bool operator>(const Action& o) const {
    return std::tie(time, seq) > std::tie(o.time, o.seq);
  }
};

class Engine;

class ContextImpl final : public ProcessContext {
 public:
  ContextImpl(Engine& engine, ProcessId proc, bool allowSend)
      : engine_(&engine), proc_(proc), allowSend_(allowSend) {}

  ProcessId self() const override { return proc_; }
  int processCount() const override;
  std::int64_t now() const override;
  void send(ProcessId to, int type, std::int64_t a, std::int64_t b) override;
  void schedule(int tag, std::int64_t delay) override;
  void setVar(const std::string& name, std::int64_t value) override;
  std::int64_t getVar(const std::string& name) const override;
  Rng& rng() override;

 private:
  friend class Engine;
  Engine* engine_;
  ProcessId proc_;
  bool allowSend_;
};

class Engine {
 public:
  Engine(const SimOptions& options, std::vector<std::unique_ptr<Program>> programs)
      : options_(options),
        programs_(std::move(programs)),
        n_(static_cast<int>(programs_.size())),
        builder_(n_),
        rootRng_(options.seed) {
    GPD_CHECK(n_ >= 1);
    GPD_CHECK(options.minDelay >= 1 && options.maxDelay >= options.minDelay);
    state_.resize(n_);
    changeLog_.resize(n_);
    // Independent stream derived from the seed (not forked from rootRng_, so
    // enabling fault injection does not perturb the delay streams).
    lossRng_.reseed(options.seed ^ 0x5bf03635f0935bd1ULL);
    procRng_.reserve(n_);
    for (int p = 0; p < n_; ++p) procRng_.push_back(rootRng_.fork());
    if (options.fifoChannels) channelClock_.resize(n_ * n_, 0);
  }

  SimResult run() {
    // Initial events.
    for (ProcessId p = 0; p < n_; ++p) {
      changeLog_[p].emplace_back();  // slot for event 0
      ContextImpl ctx(*this, p, /*allowSend=*/false);
      currentChanges_ = &changeLog_[p].back();
      programs_[p]->onInit(ctx);
      currentChanges_ = nullptr;
    }
    // Main loop.
    int executed = 0;
    int dropped = 0;
    while (!queue_.empty()) {
      const Action action = queue_.top();
      queue_.pop();
      if (executed >= options_.maxTotalEvents) {
        ++dropped;
        continue;
      }
      ++executed;
      time_ = action.time;
      const ProcessId p = action.proc;
      const EventId event = builder_.appendEvent(p);
      changeLog_[p].emplace_back();
      currentChanges_ = &changeLog_[p].back();
      currentEvent_ = event;
      ContextImpl ctx(*this, p, /*allowSend=*/true);
      if (action.isTimer) {
        programs_[p]->onTimer(ctx, action.timerTag);
      } else {
        builder_.addMessage(action.sendEvent, event);
        programs_[p]->onMessage(ctx, action.message);
      }
      currentChanges_ = nullptr;
    }

    SimResult result;
    result.droppedActions = dropped;
    result.droppedMessages = droppedMessages_;
    result.duplicatedMessages = duplicatedMessages_;
    result.delayedMessages = delayedMessages_;
    result.computation =
        std::make_unique<Computation>(std::move(builder_).build());
    result.trace = std::make_unique<VariableTrace>(*result.computation);
    buildTrace(*result.computation, *result.trace);
    return result;
  }

 private:
  friend class ContextImpl;

  std::int64_t randomDelay(ProcessId p) {
    return procRng_[p].uniform(options_.minDelay, options_.maxDelay);
  }

  void enqueue(Action action) {
    action.seq = nextSeq_++;
    queue_.push(std::move(action));
  }

  void doSend(ProcessId from, ProcessId to, int type, std::int64_t a,
              std::int64_t b) {
    GPD_CHECK(to >= 0 && to < n_);
    GPD_CHECK_MSG(to != from, "self-sends are not modeled");
    if (options_.messageLossProbability > 0 &&
        lossRng_.chance(options_.messageLossProbability)) {
      ++droppedMessages_;
      return;  // lost in the channel: no delivery is ever scheduled
    }
    scheduleDelivery(from, to, type, a, b);
    if (options_.messageDuplicationProbability > 0 &&
        lossRng_.chance(options_.messageDuplicationProbability)) {
      // At-least-once channel: a second, independently delayed delivery of
      // the same send (its own receive event and message edge).
      ++duplicatedMessages_;
      scheduleDelivery(from, to, type, a, b);
    }
  }

  void scheduleDelivery(ProcessId from, ProcessId to, int type, std::int64_t a,
                        std::int64_t b) {
    Action action;
    action.time = time_ + randomDelay(from);
    if (options_.burstDelayProbability > 0 &&
        lossRng_.chance(options_.burstDelayProbability)) {
      ++delayedMessages_;
      action.time += options_.burstDelayUnits;  // stalled link, then flushed
    }
    if (options_.fifoChannels) {
      auto& clock = channelClock_[from * n_ + to];
      action.time = std::max(action.time, clock + 1);
      clock = action.time;
    }
    action.proc = to;
    action.message = {type, a, b, from};
    action.sendEvent = currentEvent_;
    enqueue(std::move(action));
  }

  void doSchedule(ProcessId p, int tag, std::int64_t delay) {
    GPD_CHECK(delay >= 1);
    Action action;
    action.time = time_ + delay;
    action.proc = p;
    action.isTimer = true;
    action.timerTag = tag;
    enqueue(std::move(action));
  }

  void buildTrace(const Computation& comp, VariableTrace& trace) {
    for (ProcessId p = 0; p < n_; ++p) {
      // Names in first-seen order for determinism.
      std::vector<std::string> names;
      for (const auto& changes : changeLog_[p]) {
        for (const auto& [name, _] : changes) {
          if (std::find(names.begin(), names.end(), name) == names.end()) {
            names.push_back(name);
          }
        }
      }
      for (const auto& name : names) {
        std::vector<std::int64_t> history(comp.eventCount(p), 0);
        std::int64_t value = 0;
        for (int i = 0; i < comp.eventCount(p); ++i) {
          for (const auto& [n, v] : changeLog_[p][i]) {
            if (n == name) value = v;
          }
          history[i] = value;
        }
        trace.define(p, name, std::move(history));
      }
    }
  }

  const SimOptions options_;
  std::vector<std::unique_ptr<Program>> programs_;
  const int n_;
  ComputationBuilder builder_;
  Rng rootRng_;
  Rng lossRng_;  // reseeded from rootRng_ in the constructor
  int droppedMessages_ = 0;
  int duplicatedMessages_ = 0;
  int delayedMessages_ = 0;
  std::vector<Rng> procRng_;

  std::priority_queue<Action, std::vector<Action>, std::greater<>> queue_;
  std::uint64_t nextSeq_ = 0;
  std::int64_t time_ = 0;
  EventId currentEvent_;
  std::vector<std::int64_t> channelClock_;  // fifo mode: last delivery time

  // Per process: map of current variable values, and per-event change lists.
  using Changes = std::vector<std::pair<std::string, std::int64_t>>;
  std::vector<std::unordered_map<std::string, std::int64_t>> state_;
  std::vector<std::vector<Changes>> changeLog_;
  Changes* currentChanges_ = nullptr;
};

int ContextImpl::processCount() const { return engine_->n_; }
std::int64_t ContextImpl::now() const { return engine_->time_; }

void ContextImpl::send(ProcessId to, int type, std::int64_t a, std::int64_t b) {
  GPD_CHECK_MSG(allowSend_, "initial events cannot send (schedule a timer)");
  engine_->doSend(proc_, to, type, a, b);
}

void ContextImpl::schedule(int tag, std::int64_t delay) {
  engine_->doSchedule(proc_, tag, delay);
}

void ContextImpl::setVar(const std::string& name, std::int64_t value) {
  engine_->state_[proc_][name] = value;
  GPD_CHECK(engine_->currentChanges_ != nullptr);
  engine_->currentChanges_->emplace_back(name, value);
}

std::int64_t ContextImpl::getVar(const std::string& name) const {
  const auto& state = engine_->state_[proc_];
  const auto it = state.find(name);
  return it == state.end() ? 0 : it->second;
}

Rng& ContextImpl::rng() { return engine_->procRng_[proc_]; }

}  // namespace

SimResult runSimulation(const SimOptions& options,
                        std::vector<std::unique_ptr<Program>> programs) {
  Engine engine(options, std::move(programs));
  return engine.run();
}

}  // namespace gpd::sim
