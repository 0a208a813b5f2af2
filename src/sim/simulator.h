// Discrete-event simulator for asynchronous message-passing systems.
//
// The paper's model (Sec. 2.1) made executable: processes run user-defined
// Programs, communicate over reliable (by default non-FIFO) channels with
// random delays, and the simulator records the resulting distributed
// computation — the event partial order plus per-event variable values — as
// a Computation + VariableTrace ready for the detectors. Everything is
// deterministic given the seed.
//
// Event mapping: a process's Program::onInit runs at its initial event
// (index 0) and may only initialize variables and schedule timers (initial
// events neither send nor receive in the paper's model). Every message
// delivery and every timer expiry executes exactly one event on its process;
// sends performed inside a handler are stamped on that event, so an event
// can be a send, a receive, or both.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "computation/computation.h"
#include "predicates/variable_trace.h"
#include "util/rng.h"

namespace gpd::sim {

struct SimMessage {
  int type = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
  ProcessId from = -1;  // filled in by the simulator
};

// Handed to Program callbacks; valid only during the callback.
class ProcessContext {
 public:
  virtual ~ProcessContext() = default;

  virtual ProcessId self() const = 0;
  virtual int processCount() const = 0;
  virtual std::int64_t now() const = 0;

  // Sends a message (delivered after a random delay). Not allowed in onInit.
  virtual void send(ProcessId to, int type, std::int64_t a = 0,
                    std::int64_t b = 0) = 0;

  // Schedules Program::onTimer(tag) on this process after `delay` time units.
  virtual void schedule(int tag, std::int64_t delay) = 0;

  // Local variables (recorded into the trace after the current event).
  // Unset variables read 0.
  virtual void setVar(const std::string& name, std::int64_t value) = 0;
  virtual std::int64_t getVar(const std::string& name) const = 0;

  // Per-process deterministic randomness.
  virtual Rng& rng() = 0;
};

// Per-process behavior. One instance per process.
class Program {
 public:
  virtual ~Program() = default;

  // Runs at the initial event. May set variables and schedule timers only.
  virtual void onInit(ProcessContext& ctx) = 0;

  // One event per delivered message.
  virtual void onMessage(ProcessContext& ctx, const SimMessage& msg) = 0;

  // One event per expired timer.
  virtual void onTimer(ProcessContext& ctx, int tag) { (void)ctx, (void)tag; }
};

struct SimOptions {
  std::uint64_t seed = 1;
  std::int64_t minDelay = 1;   // message/timer delay bounds (inclusive)
  std::int64_t maxDelay = 10;
  bool fifoChannels = false;   // clamp per-channel delivery order
  int maxTotalEvents = 100000; // safety cap on non-initial events
  // Fault injection: each message is dropped in the "channel" with this
  // probability. The send event still happens (and still stamps the trace);
  // the receive never does — exactly how a lossy network looks to the
  // recorded computation. Lossy channels break the reliable-channel
  // assumption of the paper's model, so use only to exercise fault-facing
  // predicates (token loss, missed commits).
  double messageLossProbability = 0.0;
  // Each message is delivered a second time with this probability (an
  // at-least-once channel). The duplicate is a separate receive event of the
  // same send, with its own random delay — programs written for exactly-once
  // delivery will misbehave, which is the point: it exercises dedup logic
  // and fault-facing predicates under realistic transports.
  double messageDuplicationProbability = 0.0;
  // Burst delay: with burstDelayProbability a message is stalled by an extra
  // burstDelayUnits time units before delivery (a congested or flapping
  // link), clumping deliveries together without dropping anything.
  double burstDelayProbability = 0.0;
  std::int64_t burstDelayUnits = 50;
};

struct SimResult {
  // unique_ptrs keep addresses stable: trace refers into *computation.
  std::unique_ptr<Computation> computation;
  std::unique_ptr<VariableTrace> trace;
  int droppedActions = 0;      // actions unexecuted due to the event cap
  int droppedMessages = 0;     // messages lost to channel fault injection
  int duplicatedMessages = 0;  // extra deliveries from duplication injection
  int delayedMessages = 0;     // deliveries stalled by burst-delay injection
};

// Runs the simulation to quiescence (empty action queue) or the event cap.
// programs.size() determines the process count.
SimResult runSimulation(const SimOptions& options,
                        std::vector<std::unique_ptr<Program>> programs);

}  // namespace gpd::sim
