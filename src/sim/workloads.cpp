#include "sim/workloads.h"

#include <algorithm>
#include <tuple>

#include "util/check.h"

namespace gpd::sim {

namespace {

// ---------------------------------------------------------------------------
// Token ring.

class TokenRingProcess final : public Program {
 public:
  TokenRingProcess(const TokenRingOptions& opt, ProcessId self)
      : opt_(opt), self_(self) {}

  enum Timers { kStart = 1, kExitCs = 2, kRogueEnter = 3, kRogueExit = 4 };
  enum Messages { kToken = 1 };

  void onInit(ProcessContext& ctx) override {
    ctx.setVar("cs", 0);
    ctx.setVar("tokens", self_ < opt_.tokens ? 1 : 0);
    if (self_ < opt_.tokens) ctx.schedule(kStart, 1 + self_);
    if (self_ == opt_.rogueProcess) {
      ctx.schedule(kRogueEnter, 5);
    }
  }

  void onTimer(ProcessContext& ctx, int tag) override {
    switch (tag) {
      case kStart:
        enterCs(ctx);
        break;
      case kExitCs:
        ctx.setVar("cs", ctx.getVar("cs") - 1);
        forwardToken(ctx);
        break;
      case kRogueEnter:
        // The bug: enters the critical section without holding a token.
        ctx.setVar("cs", ctx.getVar("cs") + 1);
        ctx.schedule(kRogueExit, 6);
        break;
      case kRogueExit:
        ctx.setVar("cs", ctx.getVar("cs") - 1);
        break;
    }
  }

  void onMessage(ProcessContext& ctx, const SimMessage& msg) override {
    GPD_CHECK(msg.type == kToken);
    const std::int64_t hop = msg.a;
    ctx.setVar("tokens", ctx.getVar("tokens") + 1);
    if (hop >= static_cast<std::int64_t>(opt_.rounds) * opt_.processes) {
      return;  // enough rounds: hold the token, let the run quiesce
    }
    hopCount_ = hop;
    enterCs(ctx);
  }

 private:
  void enterCs(ProcessContext& ctx) {
    ctx.setVar("cs", ctx.getVar("cs") + 1);
    ctx.schedule(kExitCs, 1 + static_cast<int>(ctx.rng().index(4)));
  }

  void forwardToken(ProcessContext& ctx) {
    ctx.setVar("tokens", ctx.getVar("tokens") - 1);
    const std::int64_t hop = hopCount_ + 1;
    if (hop == opt_.dropTokenAtHop) return;  // token lost in the "channel"
    const ProcessId next = (self_ + 1) % opt_.processes;
    ctx.send(next, kToken, hop);
    if (hop == opt_.duplicateTokenAtHop) {
      ctx.send(next, kToken, hop);  // spurious duplicate
    }
  }

  const TokenRingOptions opt_;
  const ProcessId self_;
  std::int64_t hopCount_ = 0;
};

// ---------------------------------------------------------------------------
// Ricart–Agrawala mutual exclusion.

class RicartAgrawalaProcess final : public Program {
 public:
  RicartAgrawalaProcess(const RicartAgrawalaOptions& opt, ProcessId self)
      : opt_(opt), self_(self) {}

  enum Timers { kWantCs = 1, kExitCs = 2 };
  enum Messages { kRequest = 1, kReply = 2 };

  void onInit(ProcessContext& ctx) override {
    ctx.setVar("cs", 0);
    ctx.setVar("requesting", 0);
    ctx.setVar("completed", 0);
    ctx.schedule(kWantCs, 1 + static_cast<int>(ctx.rng().index(8)));
  }

  void onTimer(ProcessContext& ctx, int tag) override {
    if (tag == kWantCs) {
      requesting_ = true;
      myTs_ = ++lamport_;
      replies_ = 0;
      ctx.setVar("requesting", 1);
      for (ProcessId p = 0; p < opt_.processes; ++p) {
        if (p != self_) ctx.send(p, kRequest, myTs_, self_);
      }
      if (opt_.processes == 1) enterCs(ctx);
    } else {
      GPD_CHECK(tag == kExitCs && inCs_);
      inCs_ = false;
      requesting_ = false;
      ctx.setVar("cs", 0);
      ctx.setVar("requesting", 0);
      ctx.setVar("completed", ++completed_);
      for (ProcessId p : deferred_) ctx.send(p, kReply, ++lamport_);
      deferred_.clear();
      if (completed_ < opt_.rounds) {
        ctx.schedule(kWantCs, 1 + static_cast<int>(ctx.rng().index(8)));
      }
    }
  }

  void onMessage(ProcessContext& ctx, const SimMessage& msg) override {
    lamport_ = std::max(lamport_, msg.a) + 1;
    if (msg.type == kRequest) {
      const std::int64_t ts = msg.a;
      const ProcessId from = msg.from;
      // Defer while in the CS or while holding an older claim — unless this
      // process is the injected "rude" peer that never defers.
      const bool mineOlder =
          requesting_ &&
          std::tie(myTs_, self_) < std::tie(ts, from);
      const bool defer = (inCs_ || mineOlder) && self_ != opt_.rudeProcess;
      if (defer) {
        deferred_.push_back(from);
      } else {
        ctx.send(from, kReply, ++lamport_);
      }
    } else {
      GPD_CHECK(msg.type == kReply);
      if (requesting_ && !inCs_ && ++replies_ == opt_.processes - 1) {
        enterCs(ctx);
      }
    }
  }

 private:
  void enterCs(ProcessContext& ctx) {
    inCs_ = true;
    ctx.setVar("cs", 1);
    ctx.schedule(kExitCs, 1 + static_cast<int>(ctx.rng().index(4)));
  }

  const RicartAgrawalaOptions opt_;
  const ProcessId self_;
  std::int64_t lamport_ = 0;
  bool requesting_ = false;
  bool inCs_ = false;
  std::int64_t myTs_ = 0;
  int replies_ = 0;
  int completed_ = 0;
  std::vector<ProcessId> deferred_;
};

// ---------------------------------------------------------------------------
// Chang–Roberts leader election.

class ElectionProcess final : public Program {
 public:
  ElectionProcess(ProcessId self, int n, std::int64_t id)
      : self_(self), n_(n), id_(id) {}

  enum Timers { kStart = 1 };
  enum Messages { kElection = 1, kElected = 2 };

  void onInit(ProcessContext& ctx) override {
    ctx.setVar("leader", 0);
    ctx.setVar("done", 0);
    ctx.setVar("id", id_);
    ctx.schedule(kStart, 1 + static_cast<int>(ctx.rng().index(5)));
  }

  void onTimer(ProcessContext& ctx, int tag) override {
    GPD_CHECK(tag == kStart);
    ctx.send(next(), kElection, id_);
  }

  void onMessage(ProcessContext& ctx, const SimMessage& msg) override {
    if (msg.type == kElection) {
      const std::int64_t candidate = msg.a;
      if (candidate > id_) {
        ctx.send(next(), kElection, candidate);
      } else if (candidate == id_) {
        // Our own id made it around: we are the leader. (With duplicated
        // max ids, *both* owners see "their" id return — the bug.)
        ctx.setVar("leader", 1);
        ctx.setVar("done", 1);
        ctx.send(next(), kElected, id_);
      }
      // candidate < id_: swallow; our own id is already circulating.
    } else if (msg.type == kElected) {
      if (ctx.getVar("done") == 0) {
        ctx.setVar("done", 1);
        ctx.send(next(), kElected, msg.a);
      }
    }
  }

 private:
  ProcessId next() const { return (self_ + 1) % n_; }

  const ProcessId self_;
  const int n_;
  const std::int64_t id_;
};

// ---------------------------------------------------------------------------
// Two-phase voting.

class VotingProcess final : public Program {
 public:
  VotingProcess(const VotingOptions& opt, ProcessId self)
      : opt_(opt), self_(self) {}

  enum Timers { kStart = 1 };
  enum Messages { kVoteRequest = 1, kVote = 2, kDecision = 3 };

  void onInit(ProcessContext& ctx) override {
    if (self_ == 0) {
      ctx.setVar("committed", 0);
      ctx.setVar("aborted", 0);
      ctx.schedule(kStart, 1);
    } else {
      ctx.setVar("yes", 0);
      ctx.setVar("voted", 0);
    }
  }

  void onTimer(ProcessContext& ctx, int tag) override {
    GPD_CHECK(tag == kStart && self_ == 0);
    for (ProcessId p = 1; p < opt_.processes; ++p) {
      ctx.send(p, kVoteRequest);
    }
  }

  void onMessage(ProcessContext& ctx, const SimMessage& msg) override {
    if (msg.type == kVoteRequest) {
      const bool yes = ctx.rng().chance(opt_.yesProbability);
      ctx.setVar("yes", yes ? 1 : 0);
      ctx.setVar("voted", 1);
      ctx.send(0, kVote, yes ? 1 : 0);
    } else if (msg.type == kVote) {
      ++votes_;
      yesVotes_ += static_cast<int>(msg.a);
      if (votes_ == opt_.processes - 1) {
        const bool commit = yesVotes_ == votes_;
        ctx.setVar(commit ? "committed" : "aborted", 1);
        for (ProcessId p = 1; p < opt_.processes; ++p) {
          ctx.send(p, kDecision, commit ? 1 : 0);
        }
      }
    }
    // kDecision: no state we track.
  }

 private:
  const VotingOptions opt_;
  const ProcessId self_;
  int votes_ = 0;
  int yesVotes_ = 0;
};

// ---------------------------------------------------------------------------
// Dining philosophers (Chandy–Misra-style fork managers).

class PhilosopherProcess final : public Program {
 public:
  PhilosopherProcess(const PhilosophersOptions& opt, ProcessId self)
      : opt_(opt), self_(self) {}

  enum Timers { kHungry = 1, kDoneEating = 2 };
  enum Messages { kRequest = 1, kGrant = 2, kRelease = 3 };

  void onInit(ProcessContext& ctx) override {
    ctx.setVar("waiting", 0);
    ctx.setVar("eating", 0);
    ctx.setVar("meals", 0);
    forkFree_ = true;  // fork self_ starts at its manager
    ctx.schedule(kHungry, 1 + static_cast<int>(ctx.rng().index(6)));
  }

  void onTimer(ProcessContext& ctx, int tag) override {
    if (tag == kHungry) {
      ctx.setVar("waiting", 1);
      acquire(ctx, firstFork());
    } else {
      GPD_CHECK(tag == kDoneEating);
      ctx.setVar("eating", 0);
      ctx.setVar("meals", ++meals_);
      releaseBoth(ctx);
      if (meals_ < opt_.meals) {
        ctx.schedule(kHungry, 2 + static_cast<int>(ctx.rng().index(5)));
      }
    }
  }

  void onMessage(ProcessContext& ctx, const SimMessage& msg) override {
    const int fork = static_cast<int>(msg.a);
    switch (msg.type) {
      case kRequest:
        GPD_CHECK(fork == self_);  // we manage exactly fork self_
        if (forkFree_) {
          forkFree_ = false;
          ctx.send(msg.from, kGrant, fork);
        } else {
          deferred_.push_back(msg.from);
        }
        break;
      case kGrant:
        onForkAcquired(ctx, fork);
        break;
      case kRelease:
        GPD_CHECK(fork == self_);
        serveNext(ctx);
        break;
      default:
        GPD_CHECK(false);
    }
  }

 private:
  int leftFork() const { return self_; }
  int rightFork() const { return (self_ + 1) % opt_.philosophers; }

  // With ordered acquisition, take the lower-numbered fork first (the
  // classic deadlock-freedom fix); otherwise always own-fork first.
  int firstFork() const {
    if (opt_.orderedAcquisition) return std::min(leftFork(), rightFork());
    return leftFork();
  }
  int secondFork() const {
    return firstFork() == leftFork() ? rightFork() : leftFork();
  }

  void acquire(ProcessContext& ctx, int fork) {
    if (fork == self_) {
      // Self-managed: take it or queue ourselves behind remote requesters.
      if (forkFree_) {
        forkFree_ = false;
        onForkAcquired(ctx, fork);
      } else {
        deferred_.push_back(self_);
      }
    } else {
      ctx.send(fork, kRequest, fork);
    }
  }

  void onForkAcquired(ProcessContext& ctx, int fork) {
    held_.push_back(fork);
    if (static_cast<int>(held_.size()) == 1) {
      acquire(ctx, secondFork());
    } else {
      ctx.setVar("waiting", 0);
      ctx.setVar("eating", 1);
      ctx.schedule(kDoneEating, 1 + static_cast<int>(ctx.rng().index(3)));
    }
  }

  void releaseBoth(ProcessContext& ctx) {
    for (int fork : held_) {
      if (fork == self_) {
        serveNext(ctx);
      } else {
        ctx.send(fork, kRelease, fork);
      }
    }
    held_.clear();
  }

  // Our fork came free: hand it to the next waiter (possibly ourselves).
  void serveNext(ProcessContext& ctx) {
    if (deferred_.empty()) {
      forkFree_ = true;
      return;
    }
    const ProcessId next = deferred_.front();
    deferred_.erase(deferred_.begin());
    if (next == self_) {
      onForkAcquired(ctx, self_);
    } else {
      ctx.send(next, kGrant, self_);
    }
  }

  const PhilosophersOptions opt_;
  const ProcessId self_;
  bool forkFree_ = true;
  std::vector<ProcessId> deferred_;
  std::vector<int> held_;
  int meals_ = 0;
};

// ---------------------------------------------------------------------------
// Diffusing computation with Dijkstra–Scholten termination detection.

class DiffusingProcess final : public Program {
 public:
  DiffusingProcess(const DiffusingOptions& opt, ProcessId self)
      : opt_(opt), self_(self) {}

  enum Timers { kStart = 1, kStep = 2 };
  enum Messages { kWork = 1, kAck = 2 };

  void onInit(ProcessContext& ctx) override {
    ctx.setVar("active", 0);
    ctx.setVar("worked", 0);
    if (self_ == 0) {
      ctx.setVar("terminated", 0);
      ctx.schedule(kStart, 1);
    }
  }

  void onTimer(ProcessContext& ctx, int tag) override {
    if (tag == kStart) {
      GPD_CHECK(self_ == 0);
      activate(ctx, opt_.totalWorkBudget);
      return;
    }
    GPD_CHECK(tag == kStep && active_);
    ctx.setVar("worked", ctx.getVar("worked") + 1);
    maybeSpawn(ctx);
    if (--stepsLeft_ > 0) {
      ctx.schedule(kStep, 1 + static_cast<int>(ctx.rng().index(3)));
    } else {
      active_ = false;
      ctx.setVar("active", 0);
      tryDetach(ctx);
    }
  }

  void onMessage(ProcessContext& ctx, const SimMessage& msg) override {
    if (msg.type == kAck) {
      GPD_CHECK(deficit_ > 0);
      --deficit_;
      tryDetach(ctx);
      return;
    }
    GPD_CHECK(msg.type == kWork);
    const bool detached = !active_ && deficit_ == 0 && parent_ < 0;
    if (detached && self_ != 0) {
      // First engagement (or a fresh one after detaching): the sender
      // becomes our parent; its WORK is acknowledged only when we detach.
      parent_ = msg.from;
      activate(ctx, msg.a);
    } else {
      // Already engaged (the root counts as permanently engaged): any
      // further WORK is acknowledged immediately; if we are passive we
      // reactivate to do the new work (detachment stays deferred while the
      // deficit or activity persists).
      // Dijkstra–Scholten soundness, checked at runtime: once the root has
      // declared termination no WORK can still be in flight.
      GPD_CHECK_MSG(self_ != 0 || ctx.getVar("terminated") == 0,
                    "WORK arrived after the root declared termination");
      ctx.send(msg.from, kAck);
      if (!active_) activate(ctx, msg.a);
    }
  }

 private:
  void activate(ProcessContext& ctx, std::int64_t budget) {
    active_ = true;
    budget_ = budget;
    stepsLeft_ = 1 + static_cast<int>(ctx.rng().index(2));
    ctx.setVar("active", 1);
    ctx.schedule(kStep, 1 + static_cast<int>(ctx.rng().index(3)));
  }

  void maybeSpawn(ProcessContext& ctx) {
    if (budget_ <= 0 || !ctx.rng().chance(opt_.spawnProbability)) return;
    // Budget splitting keeps the global WORK count ≤ totalWorkBudget.
    const std::int64_t grant = (budget_ - 1) / 2;
    budget_ -= 1 + grant;
    ProcessId to = static_cast<ProcessId>(ctx.rng().index(opt_.processes - 1));
    if (to >= self_) ++to;
    ctx.send(to, kWork, grant);
    ++deficit_;
  }

  void tryDetach(ProcessContext& ctx) {
    if (active_ || deficit_ != 0) return;
    if (self_ == 0) {
      ctx.setVar("terminated", 1);  // Dijkstra–Scholten declaration
    } else if (parent_ >= 0) {
      ctx.send(parent_, kAck);
      parent_ = -1;
    }
  }

  const DiffusingOptions opt_;
  const ProcessId self_;
  bool active_ = false;
  std::int64_t budget_ = 0;
  int stepsLeft_ = 0;
  int deficit_ = 0;
  ProcessId parent_ = -1;
};

// ---------------------------------------------------------------------------
// Bank transfers with a Chandy–Lamport snapshot.

class BankProcess final : public Program {
 public:
  BankProcess(const SnapshotBankOptions& opt, ProcessId self)
      : opt_(opt), self_(self) {}

  enum Timers { kTransfer = 1, kInitiateSnapshot = 2 };
  enum Messages { kMoney = 1, kMarker = 2 };

  void onInit(ProcessContext& ctx) override {
    ctx.setVar("balance", opt_.initialBalance);
    ctx.setVar("recorded", 0);
    ctx.setVar("snapComplete", 0);
    ctx.schedule(kTransfer, 1 + static_cast<int>(ctx.rng().index(4)));
    if (self_ == 0) ctx.schedule(kInitiateSnapshot, opt_.snapshotDelay);
  }

  void onTimer(ProcessContext& ctx, int tag) override {
    if (tag == kTransfer) {
      transferSomething(ctx);
      if (++transfers_ < opt_.transfersPerProcess) {
        ctx.schedule(kTransfer, 1 + static_cast<int>(ctx.rng().index(5)));
      }
    } else {
      GPD_CHECK(tag == kInitiateSnapshot && self_ == 0);
      if (!recorded_) startRecording(ctx);
    }
  }

  void onMessage(ProcessContext& ctx, const SimMessage& msg) override {
    if (msg.type == kMoney) {
      ctx.setVar("balance", ctx.getVar("balance") + msg.a);
      // Channel recording: money arriving after our record, on a channel
      // whose marker has not yet arrived, was in transit at snapshot time.
      if (recorded_ && !markerFrom_[msg.from]) {
        inTransit_ += msg.a;
        ctx.setVar("snapInTransit", inTransit_);
      }
    } else {
      GPD_CHECK(msg.type == kMarker);
      if (!recorded_) startRecording(ctx);
      markerFrom_[msg.from] = true;
      if (++markers_ == opt_.processes - 1) ctx.setVar("snapComplete", 1);
    }
  }

 private:
  void transferSomething(ProcessContext& ctx) {
    const std::int64_t balance = ctx.getVar("balance");
    if (balance <= 0 || opt_.processes < 2) return;
    const std::int64_t amount = ctx.rng().uniform(1, std::max<std::int64_t>(
                                                        1, balance / 3));
    ProcessId to = static_cast<ProcessId>(ctx.rng().index(opt_.processes - 1));
    if (to >= self_) ++to;
    ctx.setVar("balance", balance - amount);
    ctx.send(to, kMoney, amount);
  }

  void startRecording(ProcessContext& ctx) {
    recorded_ = true;
    markerFrom_.assign(opt_.processes, false);
    ctx.setVar("recorded", 1);
    ctx.setVar("snapBalance", ctx.getVar("balance"));
    ctx.setVar("snapInTransit", 0);
    for (ProcessId p = 0; p < opt_.processes; ++p) {
      if (p != self_) ctx.send(p, kMarker);
    }
  }

  const SnapshotBankOptions opt_;
  const ProcessId self_;
  int transfers_ = 0;
  bool recorded_ = false;
  int markers_ = 0;
  std::int64_t inTransit_ = 0;
  std::vector<bool> markerFrom_;
};

// ---------------------------------------------------------------------------
// Producer–consumer.

class ProducerConsumerProcess final : public Program {
 public:
  ProducerConsumerProcess(const ProducerConsumerOptions& opt, ProcessId self)
      : opt_(opt), self_(self) {}

  enum Timers { kProduce = 1 };
  enum Messages { kItem = 1 };

  bool isProducer() const { return self_ < opt_.producers; }

  void onInit(ProcessContext& ctx) override {
    if (isProducer()) {
      ctx.setVar("produced", 0);
      ctx.schedule(kProduce, 1 + static_cast<int>(ctx.rng().index(3)));
    } else {
      ctx.setVar("consumed", 0);
    }
  }

  void onTimer(ProcessContext& ctx, int tag) override {
    GPD_CHECK(tag == kProduce);
    if (sent_ >= opt_.itemsPerProducer) return;
    ++sent_;
    ctx.setVar("produced", sent_);
    const ProcessId consumer =
        opt_.producers + static_cast<ProcessId>(ctx.rng().index(opt_.consumers));
    ctx.send(consumer, kItem);
    ctx.schedule(kProduce, 1 + static_cast<int>(ctx.rng().index(4)));
  }

  void onMessage(ProcessContext& ctx, const SimMessage& msg) override {
    GPD_CHECK(msg.type == kItem);
    ctx.setVar("consumed", ctx.getVar("consumed") + 1);
  }

 private:
  const ProducerConsumerOptions opt_;
  const ProcessId self_;
  int sent_ = 0;
};

}  // namespace

SimResult tokenRing(const TokenRingOptions& options) {
  GPD_CHECK(options.processes >= 2);
  GPD_CHECK(options.tokens >= 0 && options.tokens <= options.processes);
  std::vector<std::unique_ptr<Program>> programs;
  for (ProcessId p = 0; p < options.processes; ++p) {
    programs.push_back(std::make_unique<TokenRingProcess>(options, p));
  }
  SimOptions sim;
  sim.seed = options.seed;
  return runSimulation(sim, std::move(programs));
}

SimResult ricartAgrawala(const RicartAgrawalaOptions& options) {
  GPD_CHECK(options.processes >= 1);
  GPD_CHECK(options.rounds >= 1);
  std::vector<std::unique_ptr<Program>> programs;
  for (ProcessId p = 0; p < options.processes; ++p) {
    programs.push_back(std::make_unique<RicartAgrawalaProcess>(options, p));
  }
  SimOptions sim;
  sim.seed = options.seed;
  return runSimulation(sim, std::move(programs));
}

SimResult leaderElection(const LeaderElectionOptions& options) {
  GPD_CHECK(options.processes >= 2);
  Rng rng(options.seed);
  // Unique random ids via a shuffled range.
  std::vector<std::int64_t> ids(options.processes);
  for (int i = 0; i < options.processes; ++i) ids[i] = i + 1;
  rng.shuffle(ids);
  if (options.duplicateMaxId) {
    // Give the max id to a second (non-adjacent if possible) process.
    int maxAt = 0;
    for (int i = 1; i < options.processes; ++i) {
      if (ids[i] > ids[maxAt]) maxAt = i;
    }
    const int other =
        (maxAt + std::max(2, options.processes / 2)) % options.processes;
    ids[other] = ids[maxAt];
  }
  std::vector<std::unique_ptr<Program>> programs;
  for (ProcessId p = 0; p < options.processes; ++p) {
    programs.push_back(
        std::make_unique<ElectionProcess>(p, options.processes, ids[p]));
  }
  SimOptions sim;
  sim.seed = options.seed;
  return runSimulation(sim, std::move(programs));
}

SimResult voting(const VotingOptions& options) {
  GPD_CHECK(options.processes >= 2);
  std::vector<std::unique_ptr<Program>> programs;
  for (ProcessId p = 0; p < options.processes; ++p) {
    programs.push_back(std::make_unique<VotingProcess>(options, p));
  }
  SimOptions sim;
  sim.seed = options.seed;
  return runSimulation(sim, std::move(programs));
}

SimResult diningPhilosophers(const PhilosophersOptions& options) {
  GPD_CHECK(options.philosophers >= 2);
  GPD_CHECK(options.meals >= 1);
  std::vector<std::unique_ptr<Program>> programs;
  for (ProcessId p = 0; p < options.philosophers; ++p) {
    programs.push_back(std::make_unique<PhilosopherProcess>(options, p));
  }
  SimOptions sim;
  sim.seed = options.seed;
  return runSimulation(sim, std::move(programs));
}

SimResult diffusingComputation(const DiffusingOptions& options) {
  GPD_CHECK(options.processes >= 2);
  GPD_CHECK(options.totalWorkBudget >= 0);
  std::vector<std::unique_ptr<Program>> programs;
  for (ProcessId p = 0; p < options.processes; ++p) {
    programs.push_back(std::make_unique<DiffusingProcess>(options, p));
  }
  SimOptions sim;
  sim.seed = options.seed;
  return runSimulation(sim, std::move(programs));
}

SimResult snapshotBank(const SnapshotBankOptions& options) {
  GPD_CHECK(options.processes >= 2);
  GPD_CHECK(options.initialBalance >= 1);
  std::vector<std::unique_ptr<Program>> programs;
  for (ProcessId p = 0; p < options.processes; ++p) {
    programs.push_back(std::make_unique<BankProcess>(options, p));
  }
  SimOptions sim;
  sim.seed = options.seed;
  sim.fifoChannels = true;  // Chandy–Lamport requires FIFO channels
  return runSimulation(sim, std::move(programs));
}

SimResult producerConsumer(const ProducerConsumerOptions& options) {
  GPD_CHECK(options.producers >= 1 && options.consumers >= 1);
  std::vector<std::unique_ptr<Program>> programs;
  const int n = options.producers + options.consumers;
  for (ProcessId p = 0; p < n; ++p) {
    programs.push_back(std::make_unique<ProducerConsumerProcess>(options, p));
  }
  SimOptions sim;
  sim.seed = options.seed;
  return runSimulation(sim, std::move(programs));
}

}  // namespace gpd::sim
