// Canonical distributed workloads, simulated into traces for the detectors.
//
// These are the scenarios the paper's introduction motivates: debugging a
// distributed mutual-exclusion algorithm (detect concurrent critical
// sections), monitoring token counts (relational predicates), leader
// election (conjunctive "two leaders" violation / definite commit), voting
// (symmetric majority predicates), deadlock (dining philosophers), plus the
// classical protocols the predicate-detection literature grew out of:
// Chandy–Lamport snapshots and Dijkstra–Scholten termination detection.
// Each generator optionally injects the bug the associated predicate is
// meant to catch, so experiments can measure true positives and true
// negatives.
#pragma once

#include "sim/simulator.h"

namespace gpd::sim {

// --- Token-ring mutual exclusion -------------------------------------------
// `tokens` tokens circulate a ring of `processes`; a holder enters its
// critical section ("cs" = 1), exits, and forwards the token, for `rounds`
// rounds per process. Variables: "cs" (0/1), "tokens" (held count).
struct TokenRingOptions {
  int processes = 5;
  int tokens = 1;
  int rounds = 3;
  std::uint64_t seed = 1;
  // Bug: this process enters its critical section once without the token.
  int rogueProcess = -1;       // -1: disabled
  // Bug: the token is dropped on this hop count (token loss).
  int dropTokenAtHop = -1;     // -1: disabled
  // Bug: the token is duplicated on this hop count.
  int duplicateTokenAtHop = -1;
};

SimResult tokenRing(const TokenRingOptions& options);

// --- Ricart–Agrawala mutual exclusion ---------------------------------------
// The classical permission-based algorithm: a requester broadcasts a
// Lamport-timestamped REQUEST and enters its critical section after
// collecting a REPLY from every peer; peers defer their reply while they
// hold or have an older claim. Correct runs never violate mutual exclusion
// — which the detectors verify — while `rudeProcess` (a peer that always
// replies immediately, never deferring) reintroduces the race.
// Variables: "cs" (0/1), "requesting" (0/1), "completed" (CS entries done).
struct RicartAgrawalaOptions {
  int processes = 4;
  int rounds = 2;      // CS entries per process
  int rudeProcess = -1;  // bug: this process never defers replies
  std::uint64_t seed = 1;
};

SimResult ricartAgrawala(const RicartAgrawalaOptions& options);

// --- Chang–Roberts leader election -----------------------------------------
// Ring election on random unique ids; the max id wins and announces.
// Variables: "leader" (0/1: declared itself leader), "done" (0/1: learned
// the leader). With `duplicateMaxId`, two processes share the max id — the
// classic bug making two leaders possible.
struct LeaderElectionOptions {
  int processes = 5;
  std::uint64_t seed = 1;
  bool duplicateMaxId = false;
};

SimResult leaderElection(const LeaderElectionOptions& options);

// --- Two-phase voting --------------------------------------------------------
// Process 0 coordinates: requests votes from every other process, each votes
// yes with probability `yesProbability`, the coordinator commits iff all
// voted yes. Variables: voters carry "yes" (0/1) and "voted" (0/1); the
// coordinator carries "committed"/"aborted" (0/1).
struct VotingOptions {
  int processes = 6;  // 1 coordinator + 5 voters
  double yesProbability = 0.7;
  std::uint64_t seed = 1;
};

SimResult voting(const VotingOptions& options);

// --- Dining philosophers -----------------------------------------------------
// The paper's deadlock-detection motivation: n philosophers on a ring, fork
// i managed by philosopher i, philosopher i needing forks i and (i+1) mod n.
// With `orderedAcquisition` false each philosopher grabs its own fork first
// and then requests the neighbour's — the classic hold-and-wait pattern that
// can deadlock (the run quiesces with everyone waiting). With it true, forks
// are acquired in global index order, which provably excludes deadlock.
// Variables: "waiting", "eating", "meals" (completed eat rounds).
struct PhilosophersOptions {
  int philosophers = 4;
  int meals = 2;               // target meals per philosopher
  bool orderedAcquisition = false;
  std::uint64_t seed = 1;
};

SimResult diningPhilosophers(const PhilosophersOptions& options);

// --- Bank transfers with a Chandy–Lamport snapshot ---------------------------
// Processes exchange money over FIFO channels while process 0 initiates a
// Chandy–Lamport snapshot: record local state, flood markers, record
// in-transit messages per channel until that channel's marker arrives
// (the paper's reference [2], and the classic stable-predicate machinery).
// Variables: "balance"; after recording, "recorded" (0/1), "snapBalance"
// (state recorded), "snapInTransit" (recorded channel amounts into this
// process), "snapComplete" (all markers received).
// The snapshot cut — each process at its recording event — is consistent
// (FIFO channels guarantee it), and recorded balances + recorded in-transit
// sum to the system total: both are asserted in the test suite.
struct SnapshotBankOptions {
  int processes = 4;
  std::int64_t initialBalance = 100;
  int transfersPerProcess = 5;
  std::int64_t snapshotDelay = 7;  // when process 0 initiates
  std::uint64_t seed = 1;
};

SimResult snapshotBank(const SnapshotBankOptions& options);

// --- Diffusing computation with Dijkstra–Scholten termination detection ------
// Process 0 (the root) starts a diffusing computation: WORK messages activate
// passive processes, active processes may spawn more WORK, and activity dies
// out. The Dijkstra–Scholten overlay tracks an engagement tree with deficit
// counters (every WORK is eventually ACKed; a process detaches only when
// passive with zero deficit), so the root's declaration — variable
// "terminated" on process 0 — is sound: at the declaration's causal cut the
// whole computation is passive with no message in flight (asserted in the
// test suite against the linear-predicate termination oracle).
// Variables: "active" (0/1), "worked" (work steps executed); root also has
// "terminated" (0/1).
struct DiffusingOptions {
  int processes = 5;
  int totalWorkBudget = 12;   // global cap on WORK messages spawned
  double spawnProbability = 0.6;
  std::uint64_t seed = 1;
};

SimResult diffusingComputation(const DiffusingOptions& options);

// --- Producer–consumer -------------------------------------------------------
// `producers` processes each send `itemsPerProducer` items to random
// consumers. Variables: "produced" on producers, "consumed" on consumers —
// Σ produced − Σ consumed is the in-flight item count, a bounded-Δ sum.
struct ProducerConsumerOptions {
  int producers = 3;
  int consumers = 3;
  int itemsPerProducer = 5;
  std::uint64_t seed = 1;
};

SimResult producerConsumer(const ProducerConsumerOptions& options);

}  // namespace gpd::sim
