//===- Shims.h - pass-through timing shims for the traced run ---*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run of the benchmark inserts three pass-through shims at the
/// layer boundaries of the production stack and times the calls that cross
/// them. Each shim forwards every call unchanged, so the graph, the
/// warnings and the trace are the same as without them (the driver's
/// --check-shims mode proves it on DOT output):
///
///   HookRegistry -> HookShim -> AsyncPipeline          (loop thread)
///   AsyncPipeline -> SinkShim -> AsyncGBuilder         (builder thread)
///   AsyncGBuilder -> DetectorShim -> DetectorSuite     (builder thread)
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_PERFBENCH_SHIMS_H
#define ASYNCG_PERFBENCH_SHIMS_H

#include "ag/AsyncPipeline.h"
#include "ag/Observer.h"
#include "instr/Hooks.h"

#include <chrono>
#include <cstdint>
#include <ctime>
#include <pthread.h>
#include <thread>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace agbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline uint64_t cpuClockNs(clockid_t Id) {
  timespec Ts{};
  if (clock_gettime(Id, &Ts) != 0)
    return 0;
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(Ts.tv_nsec);
}

/// Span timestamps: the TSC where it exists (a few ns per read, so the
/// shims disturb the layers they time as little as possible), otherwise
/// the steady clock.
inline uint64_t ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return nowNs();
#endif
}

/// Nanoseconds per tick, calibrated once against the steady clock.
inline double nsPerTick() {
  static const double Ratio = [] {
    uint64_t N0 = nowNs(), T0 = ticks();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    uint64_t N1 = nowNs(), T1 = ticks();
    return T1 > T0 ? static_cast<double>(N1 - N0) / static_cast<double>(T1 - T0)
                   : 1.0;
  }();
  return Ratio;
}

inline double ticksToNs(uint64_t T) {
  return static_cast<double>(T) * nsPerTick();
}

/// Adds the ticks spent in one forwarded call to an accumulator.
class Span {
public:
  explicit Span(uint64_t &Acc) : Acc(Acc), T0(ticks()) {}
  ~Span() { Acc += ticks() - T0; }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  uint64_t &Acc;
  uint64_t T0;
};

/// Between the runtime's HookRegistry and the pipeline: what the loop
/// thread pays per hook event for encode plus chunk push.
class HookShim final : public asyncg::instr::AnalysisBase {
public:
  explicit HookShim(asyncg::instr::AnalysisBase &Next) : Next(Next) {}
  const char *analysisName() const override { return "bench-hook-shim"; }

  uint64_t Events = 0;
  /// Ticks spent forwarding (ticksToNs converts).
  uint64_t Ticks = 0;
  /// Function entries dispatched for a registration (callback executions).
  uint64_t Callbacks = 0;

  void onFunctionEnter(const asyncg::instr::FunctionEnterEvent &E) override {
    ++Events;
    if (E.Dispatch.Sched)
      ++Callbacks;
    Span S(Ticks);
    Next.onFunctionEnter(E);
  }
  void onFunctionExit(const asyncg::instr::FunctionExitEvent &E) override {
    ++Events;
    Span S(Ticks);
    Next.onFunctionExit(E);
  }
  void onApiCall(const asyncg::instr::ApiCallEvent &E) override {
    ++Events;
    Span S(Ticks);
    Next.onApiCall(E);
  }
  void onObjectCreate(const asyncg::instr::ObjectCreateEvent &E) override {
    ++Events;
    Span S(Ticks);
    Next.onObjectCreate(E);
  }
  void onReactionResult(const asyncg::instr::ReactionResultEvent &E) override {
    ++Events;
    Span S(Ticks);
    Next.onReactionResult(E);
  }
  void onPromiseLink(const asyncg::instr::PromiseLinkEvent &E) override {
    ++Events;
    Span S(Ticks);
    Next.onPromiseLink(E);
  }
  void onObjectRelease(const asyncg::instr::ObjectReleaseEvent &E) override {
    ++Events;
    Span S(Ticks);
    Next.onObjectRelease(E);
  }
  void onPropertyAccess(const asyncg::instr::PropertyAccessEvent &E) override {
    ++Events;
    Span S(Ticks);
    Next.onPropertyAccess(E);
  }
  void onUncaughtError(const asyncg::instr::UncaughtErrorEvent &E) override {
    ++Events;
    Span S(Ticks);
    Next.onUncaughtError(E);
  }
  void onLoopEnd(const asyncg::instr::LoopEndEvent &E) override {
    ++Events;
    Span S(Ticks);
    Next.onLoopEnd(E);
  }
  void onTickBoundary(const asyncg::instr::TickBoundaryEvent &E) override {
    ++Events;
    Span S(Ticks);
    Next.onTickBoundary(E);
  }
  void onBatchBoundary() override {
    Span S(Ticks);
    Next.onBatchBoundary();
  }

private:
  asyncg::instr::AnalysisBase &Next;
};

/// Between the pipeline and the builder, on the builder thread. Times the
/// builder (graph apply, retirement and the detectors it notifies) and
/// reads the builder thread's CPU clock at every batch boundary.
///
/// Busy time: a batch runs from its first sink call to its boundary. When
/// the ring still held records after the previous batch, the builder went
/// straight on to the next pop, so the gap between batches (pop, tee,
/// decode of the first record) counts as busy too; otherwise the gap is
/// the idle spin of a Concurrent drain and is excluded.
class SinkShim final : public asyncg::instr::AnalysisBase {
public:
  explicit SinkShim(asyncg::instr::AnalysisBase &Next) : Next(Next) {}
  const char *analysisName() const override { return "bench-sink-shim"; }

  /// Pipeline whose ring backlog tells busy gaps from idle ones; set
  /// before the first record flows (the shim exists before the pipeline).
  void watch(const asyncg::ag::AsyncPipeline *P) { Pipe = P; }

  uint64_t Calls = 0;
  uint64_t Ticks = 0;
  /// Builder thread CPU at the last batch boundary (whole thread lifetime,
  /// idle spin included) and inside busy intervals only.
  uint64_t ThreadCpuNs = 0;
  uint64_t BusyNs = 0;
  uint64_t BusyCpuNs = 0;

  void onFunctionEnter(const asyncg::instr::FunctionEnterEvent &E) override {
    Span S = enter();
    Next.onFunctionEnter(E);
  }
  void onFunctionExit(const asyncg::instr::FunctionExitEvent &E) override {
    Span S = enter();
    Next.onFunctionExit(E);
  }
  void onApiCall(const asyncg::instr::ApiCallEvent &E) override {
    Span S = enter();
    Next.onApiCall(E);
  }
  void onObjectCreate(const asyncg::instr::ObjectCreateEvent &E) override {
    Span S = enter();
    Next.onObjectCreate(E);
  }
  void onReactionResult(const asyncg::instr::ReactionResultEvent &E) override {
    Span S = enter();
    Next.onReactionResult(E);
  }
  void onPromiseLink(const asyncg::instr::PromiseLinkEvent &E) override {
    Span S = enter();
    Next.onPromiseLink(E);
  }
  void onObjectRelease(const asyncg::instr::ObjectReleaseEvent &E) override {
    Span S = enter();
    Next.onObjectRelease(E);
  }
  void onPropertyAccess(const asyncg::instr::PropertyAccessEvent &E) override {
    Span S = enter();
    Next.onPropertyAccess(E);
  }
  void onUncaughtError(const asyncg::instr::UncaughtErrorEvent &E) override {
    Span S = enter();
    Next.onUncaughtError(E);
  }
  void onLoopEnd(const asyncg::instr::LoopEndEvent &E) override {
    Span S = enter();
    Next.onLoopEnd(E);
  }
  void onTickBoundary(const asyncg::instr::TickBoundaryEvent &E) override {
    Span S = enter();
    Next.onTickBoundary(E);
  }
  void onBatchBoundary() override {
    {
      Span S = enter();
      Next.onBatchBoundary();
    }
    uint64_t End = nowNs();
    uint64_t EndCpu = cpuClockNs(Cpu);
    BusyNs += End - BatchStart;
    BusyCpuNs += EndCpu - BatchStartCpu;
    ThreadCpuNs = EndCpu;
    InBatch = false;
    LastEnd = End;
    LastEndCpu = EndCpu;
    PushedAtEnd = Pipe ? Pipe->pushedRecords() : 0;
  }

private:
  Span enter() {
    ++Calls;
    if (!HaveClock) {
      if (pthread_getcpuclockid(pthread_self(), &Cpu) != 0)
        Cpu = CLOCK_THREAD_CPUTIME_ID;
      HaveClock = true;
    }
    if (!InBatch) {
      InBatch = true;
      // Consumed now includes the previous batch: a positive backlog means
      // the records of this batch were already waiting when it ended.
      bool Backlog = Pipe && LastEnd &&
                     PushedAtEnd > Pipe->consumedRecords();
      if (Backlog) {
        BatchStart = LastEnd;
        BatchStartCpu = LastEndCpu;
      } else {
        BatchStart = nowNs();
        BatchStartCpu = cpuClockNs(Cpu);
      }
    }
    return Span(Ticks);
  }

  asyncg::instr::AnalysisBase &Next;
  const asyncg::ag::AsyncPipeline *Pipe = nullptr;
  bool HaveClock = false;
  clockid_t Cpu = CLOCK_THREAD_CPUTIME_ID;
  bool InBatch = false;
  uint64_t BatchStart = 0, BatchStartCpu = 0;
  uint64_t LastEnd = 0, LastEndCpu = 0;
  uint64_t PushedAtEnd = 0;
};

/// Wraps the detector suite as the builder's graph observer.
class DetectorShim final : public asyncg::ag::GraphObserver {
public:
  explicit DetectorShim(asyncg::ag::GraphObserver &Next) : Next(Next) {}
  const char *observerName() const override { return Next.observerName(); }

  uint64_t Ticks = 0;

  void onTickStart(asyncg::ag::AsyncGBuilder &B,
                   const asyncg::ag::AgTick &T) override {
    Span S(Ticks);
    Next.onTickStart(B, T);
  }
  void onNodeAdded(asyncg::ag::AsyncGBuilder &B,
                   asyncg::ag::NodeId N) override {
    Span S(Ticks);
    Next.onNodeAdded(B, N);
  }
  void onEdgeAdded(asyncg::ag::AsyncGBuilder &B,
                   const asyncg::ag::AgEdge &E) override {
    Span S(Ticks);
    Next.onEdgeAdded(B, E);
  }
  void onApiEvent(asyncg::ag::AsyncGBuilder &B,
                  const asyncg::instr::ApiCallEvent &E) override {
    Span S(Ticks);
    Next.onApiEvent(B, E);
  }
  void onRegistrationRemoved(asyncg::ag::AsyncGBuilder &B,
                             asyncg::ag::NodeId Cr) override {
    Span S(Ticks);
    Next.onRegistrationRemoved(B, Cr);
  }
  void onRegistrationReleased(asyncg::ag::AsyncGBuilder &B,
                              asyncg::ag::NodeId Cr) override {
    Span S(Ticks);
    Next.onRegistrationReleased(B, Cr);
  }
  void onObjectReleased(asyncg::ag::AsyncGBuilder &B, asyncg::ag::NodeId Ob,
                        asyncg::jsrt::ObjectId Obj, bool IsPromise) override {
    Span S(Ticks);
    Next.onObjectReleased(B, Ob, Obj, IsPromise);
  }
  void onRegionRetire(asyncg::ag::AsyncGBuilder &B,
                      uint32_t TickIndex) override {
    Span S(Ticks);
    Next.onRegionRetire(B, TickIndex);
  }
  void onEnd(asyncg::ag::AsyncGBuilder &B) override {
    Span S(Ticks);
    Next.onEnd(B);
  }

private:
  asyncg::ag::GraphObserver &Next;
};

} // namespace agbench

#endif // ASYNCG_PERFBENCH_SHIMS_H
