// Unit tests for the discrete-event kernel: event ordering, processes,
// conditions, channels, determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/channel.h"
#include "sim/condition.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "util/strings.h"

using namespace mg::sim;

TEST(SimTime, Conversions) {
  EXPECT_EQ(fromSeconds(1.0), kSecond);
  EXPECT_EQ(fromSeconds(0.001), kMillisecond);
  EXPECT_DOUBLE_EQ(toSeconds(kSecond), 1.0);
  EXPECT_EQ(fromSeconds(0.0), 0);
  EXPECT_EQ(fromSeconds(2.5e-9), 3);  // rounds to nearest ns
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.scheduleAt(30, [&] { order.push_back(3); });
  sim.scheduleAt(10, [&] { order.push_back(1); });
  sim.scheduleAt(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, EqualTimesRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.scheduleAt(10, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime seen = -1;
  sim.scheduleAt(100, [&] {
    sim.scheduleAfter(50, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 150);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.scheduleAt(10, [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelUnknownIsNoop) {
  Simulator sim;
  sim.cancel(9999);  // must not throw
  sim.run();
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.scheduleAt(100, [] {});
  sim.run();
  EXPECT_THROW(sim.scheduleAt(50, [] {}), mg::UsageError);
  EXPECT_THROW(sim.scheduleAfter(-1, [] {}), mg::UsageError);
}

TEST(Simulator, RunUntilLeavesADrainedRunsClockAtItsLastEvent) {
  Simulator sim;
  std::vector<int> ran;
  sim.scheduleAt(10, [&] { ran.push_back(1); });
  sim.scheduleAt(30, [&] { ran.push_back(2); });
  sim.runUntil(50);  // drains at 30
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.pendingEventCount(), 0u);
  EXPECT_EQ(sim.now(), 30);
  // A later limit before the old one is not "in the past" for a drained run.
  sim.runUntil(40);
  EXPECT_EQ(sim.now(), 30);
  // Work scheduled afterwards runs from the run's own clock; once events
  // remain past the limit, the clock moves to the limit again.
  sim.scheduleAfter(5, [&] { ran.push_back(3); });
  sim.scheduleAt(100, [&] { ran.push_back(4); });
  sim.runUntil(60);
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 60);
}

TEST(Simulator, RunUntilStopsAndSetsNow) {
  Simulator sim;
  std::vector<int> ran;
  sim.scheduleAt(10, [&] { ran.push_back(1); });
  sim.scheduleAt(100, [&] { ran.push_back(2); });
  sim.runUntil(50);
  EXPECT_EQ(ran, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), 50);
  sim.run();
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
}

TEST(Process, DelayAdvancesTime) {
  Simulator sim;
  std::vector<SimTime> stamps;
  sim.spawn("p", [&] {
    stamps.push_back(sim.now());
    sim.delay(100);
    stamps.push_back(sim.now());
    sim.delay(kSecond);
    stamps.push_back(sim.now());
  });
  sim.run();
  EXPECT_EQ(stamps, (std::vector<SimTime>{0, 100, 100 + kSecond}));
}

TEST(Process, TwoProcessesInterleaveDeterministically) {
  Simulator sim;
  std::vector<std::string> log;
  sim.spawn("a", [&] {
    for (int i = 0; i < 3; ++i) {
      log.push_back(mg::util::format("a%d", i));
      sim.delay(10);
    }
  });
  sim.spawn("b", [&] {
    sim.delay(5);
    for (int i = 0; i < 3; ++i) {
      log.push_back(mg::util::format("b%d", i));
      sim.delay(10);
    }
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2", "b2"}));
}

TEST(Process, SuspendAndWake) {
  Simulator sim;
  Process* sleeper = nullptr;
  SimTime woke_at = -1;
  sleeper = &sim.spawn("sleeper", [&] {
    sim.suspend();
    woke_at = sim.now();
  });
  sim.spawn("waker", [&] {
    sim.delay(500);
    sim.wake(*sleeper);
  });
  sim.run();
  EXPECT_EQ(woke_at, 500);
}

TEST(Process, SuspendForTimesOut) {
  Simulator sim;
  bool woken = true;
  sim.spawn("p", [&] { woken = sim.suspendFor(100); });
  sim.run();
  EXPECT_FALSE(woken);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Process, SuspendForWokenBeforeTimeout) {
  Simulator sim;
  Process* p = nullptr;
  bool woken = false;
  SimTime end = -1;
  p = &sim.spawn("p", [&] {
    woken = sim.suspendFor(kSecond);
    end = sim.now();
  });
  sim.spawn("w", [&] {
    sim.delay(10);
    sim.wake(*p);
  });
  sim.run();
  EXPECT_TRUE(woken);
  EXPECT_EQ(end, 10);
  // The cancelled timeout must not stretch the run: final time is the wake.
  EXPECT_EQ(sim.now(), 10);
}

TEST(Process, StaleTimeoutDoesNotFireOnLaterSuspend) {
  Simulator sim;
  Process* p = nullptr;
  std::vector<bool> results;
  p = &sim.spawn("p", [&] {
    results.push_back(sim.suspendFor(100));  // woken at t=10
    results.push_back(sim.suspendFor(1000));  // must time out at 1010, not 100
  });
  sim.spawn("w", [&] {
    sim.delay(10);
    sim.wake(*p);
  });
  sim.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0]);
  EXPECT_FALSE(results[1]);
  EXPECT_EQ(sim.now(), 1010);
}

TEST(Process, WakeOnRunningProcessIsNoop) {
  Simulator sim;
  Process* p = nullptr;
  p = &sim.spawn("p", [&] {
    sim.wake(*p);  // self-wake while running: dropped
    sim.delay(10);
  });
  sim.run();
  EXPECT_EQ(sim.now(), 10);
}

TEST(Process, BlockingCallOutsideProcessThrows) {
  Simulator sim;
  EXPECT_THROW(sim.delay(10), mg::UsageError);
  EXPECT_THROW(sim.suspend(), mg::UsageError);
  EXPECT_FALSE(sim.inProcessContext());
}

TEST(Process, SpawnFromWithinProcess) {
  Simulator sim;
  std::vector<std::string> log;
  sim.spawn("parent", [&] {
    sim.delay(10);
    sim.spawn("child", [&] {
      log.push_back("child@" + std::to_string(sim.now()));
    });
    sim.delay(10);
    log.push_back("parent@" + std::to_string(sim.now()));
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"child@10", "parent@20"}));
}

TEST(Process, ShutdownKillsSuspendedDaemons) {
  Simulator sim;
  bool unwound = false;
  sim.spawn("daemon", [&] {
    struct Flag {
      bool* f;
      ~Flag() { *f = true; }
    } flag{&unwound};
    sim.suspend();  // never woken
  });
  sim.run();
  EXPECT_EQ(sim.liveProcessCount(), 1);
  EXPECT_EQ(sim.suspendedProcessNames(), (std::vector<std::string>{"daemon"}));
  sim.shutdown();
  EXPECT_TRUE(unwound);
  EXPECT_EQ(sim.liveProcessCount(), 0);
}

TEST(Process, ExceptionInBodyDoesNotCrashKernel) {
  Simulator sim;
  sim.spawn("thrower", [&] {
    sim.delay(5);
    throw std::runtime_error("app bug");
  });
  SimTime end = sim.run();
  EXPECT_EQ(end, 5);
  EXPECT_EQ(sim.liveProcessCount(), 0);
}

TEST(Condition, NotifyOneWakesFifo) {
  Simulator sim;
  Condition cond(sim);
  std::vector<int> woken;
  for (int i = 0; i < 3; ++i) {
    sim.spawn(mg::util::format("w%d", i), [&, i] {
      cond.wait();
      woken.push_back(i);
    });
  }
  sim.spawn("notifier", [&] {
    sim.delay(10);
    cond.notifyOne();
    sim.delay(10);
    cond.notifyOne();
    sim.delay(10);
    cond.notifyOne();
  });
  sim.run();
  EXPECT_EQ(woken, (std::vector<int>{0, 1, 2}));
}

TEST(Condition, NotifyAllWakesEveryone) {
  Simulator sim;
  Condition cond(sim);
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    sim.spawn(mg::util::format("w%d", i), [&] {
      cond.wait();
      ++woken;
    });
  }
  sim.spawn("notifier", [&] {
    sim.delay(1);
    EXPECT_EQ(cond.waiterCount(), 5u);
    cond.notifyAll();
  });
  sim.run();
  EXPECT_EQ(woken, 5);
  EXPECT_EQ(cond.waiterCount(), 0u);
}

TEST(Condition, WaitForTimeoutRemovesWaiter) {
  Simulator sim;
  Condition cond(sim);
  bool notified = true;
  sim.spawn("p", [&] { notified = cond.waitFor(50); });
  sim.run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(cond.waiterCount(), 0u);
}

TEST(Channel, SendRecvTransfersInOrder) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  sim.spawn("consumer", [&] {
    for (int i = 0; i < 3; ++i) got.push_back(ch.recv());
  });
  sim.spawn("producer", [&] {
    for (int i = 1; i <= 3; ++i) {
      sim.delay(10);
      ch.send(i * 11);
    }
  });
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{11, 22, 33}));
}

TEST(Channel, TrySendTryRecv) {
  Simulator sim;
  Channel<int> ch(sim);
  EXPECT_TRUE(ch.trySend(5));
  EXPECT_TRUE(ch.trySend(6));  // unbounded: never full
  ch.close();
  EXPECT_FALSE(ch.trySend(7));  // closed
  EXPECT_EQ(ch.size(), 2u);
}

TEST(Channel, RecvForTimesOut) {
  Simulator sim;
  Channel<int> ch(sim);
  std::optional<int> got = 42;
  sim.spawn("p", [&] { got = ch.recvFor(100); });
  sim.run();
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(sim.now(), 100);
}

TEST(Channel, RecvForGetsValueBeforeTimeout) {
  Simulator sim;
  Channel<int> ch(sim);
  std::optional<int> got;
  sim.spawn("consumer", [&] { got = ch.recvFor(kSecond); });
  sim.spawn("producer", [&] {
    sim.delay(10);
    ch.send(7);
  });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);
  EXPECT_EQ(sim.now(), 10);
}

TEST(Channel, CloseUnblocksReceiverWithException) {
  Simulator sim;
  bool threw = false;
  Channel<int> ch(sim);
  sim.spawn("consumer", [&] {
    try {
      ch.recv();
    } catch (const ChannelClosed&) {
      threw = true;
    }
  });
  sim.spawn("closer", [&] {
    sim.delay(5);
    ch.close();
  });
  sim.run();
  EXPECT_TRUE(threw);
}

TEST(Channel, CloseDrainsQueuedItemsFirst) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  bool closed_seen = false;
  sim.spawn("p", [&] {
    ch.send(1);
    ch.send(2);
    ch.close();
    try {
      got.push_back(ch.recv());
      got.push_back(ch.recv());
      got.push_back(ch.recv());
    } catch (const ChannelClosed&) {
      closed_seen = true;
    }
  });
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
  EXPECT_TRUE(closed_seen);
}

// Determinism: the same program produces the identical event trace twice.
TEST(Determinism, IdenticalRunsProduceIdenticalLogs) {
  auto runOnce = [] {
    Simulator sim;
    Channel<int> ch(sim);
    std::vector<std::string> log;
    for (int p = 0; p < 4; ++p) {
      sim.spawn(mg::util::format("prod%d", p), [&, p] {
        for (int i = 0; i < 5; ++i) {
          sim.delay(10 * (p + 1));
          ch.send(p * 100 + i);
        }
      });
    }
    sim.spawn("cons", [&] {
      for (int i = 0; i < 20; ++i) {
        int v = ch.recv();
        log.push_back(std::to_string(sim.now()) + ":" + std::to_string(v));
      }
    });
    sim.run();
    return log;
  };
  EXPECT_EQ(runOnce(), runOnce());
}

TEST(Determinism, EventCounterAdvances) {
  Simulator sim;
  sim.scheduleAt(1, [] {});
  sim.scheduleAt(2, [] {});
  sim.run();
  EXPECT_GE(sim.eventsExecuted(), 2u);
}

// --------------------------------------------------- kernel edge cases ----

TEST(Simulator, RunUntilThenProcessContinues) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.spawn("p", [&] {
    for (int i = 0; i < 3; ++i) {
      sim.delay(100);
      log.push_back(sim.now());
    }
  });
  sim.runUntil(150);
  EXPECT_EQ(log, (std::vector<SimTime>{100}));
  sim.run();
  EXPECT_EQ(log, (std::vector<SimTime>{100, 200, 300}));
}

TEST(Simulator, ManyProcessesTearDownCleanly) {
  // 100 daemons blocked in different primitives; shutdown must unwind all.
  Simulator sim;
  auto cond = std::make_unique<Condition>(sim);
  auto chan = std::make_unique<Channel<int>>(sim);
  for (int i = 0; i < 100; ++i) {
    switch (i % 3) {
      case 0:
        sim.spawn(mg::util::format("s%d", i), [&] { sim.suspend(); });
        break;
      case 1:
        sim.spawn(mg::util::format("c%d", i), [&] { cond->wait(); });
        break;
      default:
        sim.spawn(mg::util::format("r%d", i), [&] { chan->recv(); });
        break;
    }
  }
  sim.run();
  EXPECT_EQ(sim.liveProcessCount(), 100);
  sim.shutdown();
  EXPECT_EQ(sim.liveProcessCount(), 0);
}

TEST(Channel, ManyProducersOneConsumerFifoPerProducer) {
  Simulator sim;
  Channel<std::pair<int, int>> ch(sim);
  constexpr int kProducers = 10;
  constexpr int kItems = 50;
  for (int p = 0; p < kProducers; ++p) {
    sim.spawn(mg::util::format("prod%d", p), [&, p] {
      for (int i = 0; i < kItems; ++i) {
        sim.delay((p + 1) % 7 + 1);
        ch.send({p, i});
      }
    });
  }
  std::vector<int> last(kProducers, -1);
  bool order_ok = true;
  sim.spawn("cons", [&] {
    for (int n = 0; n < kProducers * kItems; ++n) {
      auto [p, i] = ch.recv();
      if (i != last[static_cast<size_t>(p)] + 1) order_ok = false;
      last[static_cast<size_t>(p)] = i;
    }
  });
  sim.run();
  EXPECT_TRUE(order_ok);
  for (int v : last) EXPECT_EQ(v, kItems - 1);
}

TEST(Condition, KilledWaiterLeavesNoDanglingEntry) {
  // A process killed while waiting must be removed from the waiter list;
  // a later notify must not touch its freed Process.
  Simulator sim;
  auto cond = std::make_unique<Condition>(sim);
  sim.spawn("w", [&] { cond->wait(); });
  sim.run();
  EXPECT_EQ(cond->waiterCount(), 1u);
  sim.shutdown();  // unwinds the waiter through WaiterGuard
  EXPECT_EQ(cond->waiterCount(), 0u);
  cond->notifyAll();  // no waiters, no crash
}

// ------------------------------------------------------- process contexts --

TEST(ProcessContext, CaughtExceptionsStayWithTheirProcess) {
  // Every process shares the kernel's OS thread, whose libstdc++ exception
  // state (the caught-exception stack) must follow each context: two
  // processes suspended inside catch handlers each rethrow their own. `a`
  // enters its handler first and leaves it first, so on one shared stack
  // its `throw;` would find b's exception on top.
  Simulator sim;
  std::vector<std::string> rethrown;
  for (const std::string name : {"a", "b"}) {
    sim.spawn(name, [&sim, &rethrown, name] {
      try {
        try {
          throw std::runtime_error(name);
        } catch (const std::runtime_error&) {
          sim.delay(name == "a" ? 10 : 20);
          throw;
        }
      } catch (const std::runtime_error& e) {
        rethrown.push_back(name + ":" + e.what() + "@" + std::to_string(sim.now()));
      }
    });
  }
  sim.run();
  EXPECT_EQ(rethrown, (std::vector<std::string>{"a:a@10", "b:b@20"}));
}

TEST(ProcessContext, NoUncaughtExceptionsAfterResume) {
  // A process blocking in a destructor that runs during unwinding has one
  // uncaught exception; the processes and events that run meanwhile must see
  // none, and it must see its own again when resumed.
  Simulator sim;
  std::vector<int> seen;
  sim.spawn("unwinding", [&] {
    struct BlockOnUnwind {
      Simulator& sim;
      std::vector<int>& seen;
      ~BlockOnUnwind() {
        seen.push_back(std::uncaught_exceptions());
        sim.delay(10);
        seen.push_back(std::uncaught_exceptions());
      }
    };
    try {
      BlockOnUnwind guard{sim, seen};
      throw std::runtime_error("unwinding");
    } catch (const std::runtime_error&) {
      seen.push_back(std::uncaught_exceptions());
    }
  });
  sim.spawn("bystander", [&] {
    for (int i = 0; i < 3; ++i) {
      sim.delay(4);
      seen.push_back(100 + std::uncaught_exceptions());
    }
  });
  sim.scheduleAt(6, [&] { seen.push_back(200 + std::uncaught_exceptions()); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<int>{1, 100, 200, 100, 1, 0, 100}));
  EXPECT_EQ(std::uncaught_exceptions(), 0);
}

TEST(ProcessContext, KillFromAnotherProcessUnwindsTheVictim) {
  // The resumer need not be the kernel: a process killing another switches
  // to it directly, and the victim's unwind returns to the killer.
  Simulator sim;
  bool unwound = false;
  Process& victim = sim.spawn("victim", [&] {
    struct Flag {
      bool* f;
      ~Flag() { *f = true; }
    } flag{&unwound};
    sim.suspend();
  });
  sim.spawn("killer", [&] {
    sim.delay(1);
    sim.killProcess(victim);
    EXPECT_TRUE(unwound);
    sim.delay(1);
  });
  EXPECT_EQ(sim.run(), 2);
  EXPECT_EQ(sim.liveProcessCount(), 0);
}

TEST(ProcessContext, KilledBeforeFirstSliceSkipsBodyAndStack) {
  Simulator sim;
  bool ran = false;
  Process& p = sim.spawn("never", [&] { ran = true; });
  sim.killProcess(p);
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.liveProcessCount(), 0);
  EXPECT_EQ(sim.processStacksMapped(), 0u);
}

TEST(ProcessContext, TenThousandProcessesSpawnDelayAndFinish) {
  // One OS thread per process would need 10k threads here.
  constexpr int kProcs = 10000;
  Simulator sim;
  int done = 0;
  for (int i = 0; i < kProcs; ++i) {
    sim.spawn(mg::util::format("p%d", i), [&sim, &done, i] {
      sim.delay(1 + i % 7);
      ++done;
    });
  }
  EXPECT_EQ(sim.run(), 7);
  EXPECT_EQ(done, kProcs);
  EXPECT_EQ(sim.liveProcessCount(), 0);
  EXPECT_EQ(sim.processStacksMapped(), static_cast<std::size_t>(kProcs));
}

TEST(ProcessContext, SpawnFinishChurnReusesStacks) {
  // 10k processes, at most a small window alive at once: finished processes
  // return their stacks, so the pool never maps more than the peak number of
  // live processes.
  constexpr int kProcs = 10000;
  constexpr int kWindow = 5;
  Simulator sim;
  int spawned = 0;
  int peak_live = 0;
  std::function<void()> child = [&] {
    sim.delay(1 + spawned % 3);
    if (spawned < kProcs) {
      ++spawned;
      sim.spawn(mg::util::format("c%d", spawned), child);
    }
  };
  sim.scheduleAt(0, [&] {
    for (; spawned < kWindow; ++spawned) sim.spawn(mg::util::format("c%d", spawned), child);
  });
  while (sim.pendingEventCount() > 0) {
    sim.runUntil(sim.now() + 1);
    peak_live = std::max(peak_live, sim.liveProcessCount());
  }
  EXPECT_EQ(spawned, kProcs);
  EXPECT_EQ(sim.liveProcessCount(), 0);
  EXPECT_GE(sim.processStacksMapped(), 1u);
  EXPECT_LE(sim.processStacksMapped(), static_cast<std::size_t>(peak_live));
}

namespace {
// Recurses until the stack runs out; the volatile frame and the use after
// the call keep it from becoming a loop.
int recurseWithoutBound(int depth) {
  volatile char frame[512];
  frame[0] = static_cast<char>(depth);
  if (depth < 0) return 0;
  return recurseWithoutBound(depth + 1) + frame[0];
}
}  // namespace

TEST(ProcessContextDeathTest, StackOverflowNamesTheProcess) {
  // The guard page below each process stack turns an overflow into a named
  // diagnostic. Under ASan, whose SIGSEGV handler owns stack overflows, the
  // simulator installs no handler of its own and ASan's report is matched.
#if defined(__SANITIZE_ADDRESS__)
  const char* expected = "stack-overflow";
#else
  const char* expected = "process 'deep' overflowed its 1024 KiB stack";
#endif
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.spawn("deep", [] { recurseWithoutBound(0); });
        sim.run();
      },
      expected);
}

TEST(Simulator, EventStormStaysOrdered) {
  // Many same-time events interleaved with cancellations keep FIFO order.
  Simulator sim;
  std::vector<int> ran;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(sim.scheduleAt(10, [&ran, i] { ran.push_back(i); }));
  }
  for (int i = 0; i < 200; i += 2) sim.cancel(ids[static_cast<size_t>(i)]);
  sim.run();
  ASSERT_EQ(ran.size(), 100u);
  for (size_t k = 0; k < ran.size(); ++k) EXPECT_EQ(ran[k], static_cast<int>(2 * k + 1));
}

// ------------------------------------------------- event arena + EventFn --

TEST(EventArena, MillionScheduleCancelStaysBounded) {
  // Regression for the lazy-cancellation kernel, where each cancel left a
  // tombstone in the priority queue: a timer-churn workload (schedule a
  // timeout, cancel it, repeat) grew the queue without bound. The arena
  // cancels in place and recycles slots, so one million churned timeouts
  // must leave the queue empty and the arena no larger than the peak number
  // of *concurrently* pending events.
  Simulator sim;
  constexpr int kTotal = 1'000'000;
  constexpr int kWindow = 64;  // live timeouts at any instant
  std::vector<EventId> window;
  for (int i = 0; i < kTotal; ++i) {
    window.push_back(sim.scheduleAt(1'000'000 + i, [] {}));
    if (window.size() == kWindow) {
      for (EventId id : window) sim.cancel(id);
      window.clear();
    }
  }
  for (EventId id : window) sim.cancel(id);
  EXPECT_EQ(sim.pendingEventCount(), 0u);
  EXPECT_LE(sim.eventArenaSlots(), static_cast<std::size_t>(kWindow));
  sim.run();
  EXPECT_EQ(sim.eventsExecuted(), 0u);
}

TEST(EventArena, CancelledSlotReuseDoesNotConfuseStaleIds) {
  // A cancelled id whose slot was recycled must stay a no-op: the
  // generation tag changes on free, so the stale handle misses.
  Simulator sim;
  bool second_ran = false;
  EventId first = sim.scheduleAt(10, [] {});
  sim.cancel(first);
  EventId second = sim.scheduleAt(20, [&] { second_ran = true; });
  sim.cancel(first);  // stale: same slot, older generation
  sim.run();
  EXPECT_TRUE(second_ran);
  EXPECT_NE(first, second);
}

namespace {
struct InstanceCounter {
  static int live;
  InstanceCounter() { ++live; }
  InstanceCounter(const InstanceCounter&) { ++live; }
  InstanceCounter(InstanceCounter&&) noexcept { ++live; }
  ~InstanceCounter() { --live; }
};
int InstanceCounter::live = 0;
}  // namespace

TEST(EventFn, MoveOnlyCaptureStaysInline) {
  auto p = std::make_unique<int>(41);
  EventFn fn([p = std::move(p)] { ++*p; });
  EXPECT_FALSE(fn.onHeap());
  EXPECT_TRUE(static_cast<bool>(fn));
  EventFn moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  moved();
}

TEST(EventFn, LargeCaptureFallsBackToHeap) {
  std::array<std::uint64_t, 16> big{};  // 128 bytes > inline capacity
  big[7] = 7;
  std::uint64_t seen = 0;
  EventFn fn([big, &seen] { seen = big[7]; });
  EXPECT_TRUE(fn.onHeap());
  EventFn moved = std::move(fn);
  moved();
  EXPECT_EQ(seen, 7u);
}

TEST(EventFn, DestructionBalancedAcrossMoves) {
  {
    EventFn fn([c = InstanceCounter{}] { (void)c; });
    EXPECT_EQ(InstanceCounter::live, 1);
    EventFn a = std::move(fn);
    EXPECT_EQ(InstanceCounter::live, 1);  // relocate, not copy
    EventFn b;
    b = std::move(a);
    EXPECT_EQ(InstanceCounter::live, 1);
  }
  EXPECT_EQ(InstanceCounter::live, 0);
}

TEST(EventFn, CancelDestroysCaptureImmediately) {
  Simulator sim;
  EventId id = sim.scheduleAt(10, [c = InstanceCounter{}] { (void)c; });
  EXPECT_EQ(InstanceCounter::live, 1);
  sim.cancel(id);
  // The capture dies at cancel time, not when the slot is later recycled.
  EXPECT_EQ(InstanceCounter::live, 0);
  sim.run();
}

TEST(EventFn, HeapFallbackCounterTracksOnlyOversizeCaptures) {
  Simulator sim;
  const auto& ctr = sim.metrics().counter("sim.kernel.eventfn_heap_fallbacks");
  long long sum = 0;
  for (int i = 0; i < 100; ++i) sim.scheduleAt(i, [&sum, i] { sum += i; });
  EXPECT_EQ(ctr.value(), 0);  // hot-path captures stay inline
  std::array<std::uint64_t, 16> big{};
  sim.scheduleAt(200, [big, &sum] { sum += static_cast<long long>(big[0]); });
  EXPECT_EQ(ctr.value(), 1);
  sim.run();
  EXPECT_EQ(sum, 4950);
}
