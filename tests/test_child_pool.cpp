//===- tests/test_child_pool.cpp - Fork-pool primitive tests --------------===//
///
/// The child-process mechanics every process tier shares
/// (runtime/child_pool.h): a later sibling must not hold an earlier
/// one's pipes open, and reaping a child that broke protocol but is
/// still alive must not wedge the owner.
///
/// Fixture naming is load-bearing for CI: `ProcessPool.*` runs in the
/// TSan leg's filter.

#include "runtime/child_pool.h"
#include "runtime/ipc.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>

#include <poll.h>
#include <unistd.h>

using namespace optoct;
using namespace optoct::runtime;

namespace {

/// Child body: waits for EOF on its input, announces it with one frame,
/// then blocks until killed.
void announceEofThenPause(int In, int Out) {
  char B;
  while (::read(In, &B, 1) > 0) {
  }
  ipc::writeFrame(Out, ipc::MsgType::Heartbeat, "eof");
  for (;;)
    ::pause();
}

/// One poll of \p C's output pipe, up to \p Ms; drains it if readable.
bool pollOnce(ChildPool &Pool, Child &C, int Ms) {
  struct pollfd P = {C.FromFd, POLLIN, 0};
  if (::poll(&P, 1, Ms) <= 0)
    return false;
  Pool.drain(C);
  return true;
}

TEST(ProcessPool, LaterSiblingsDoNotHoldEarlierPipesOpen) {
  ChildPool Pool;
  Child A, B, C;
  ASSERT_TRUE(Pool.spawn(A, announceEofThenPause));
  ASSERT_TRUE(Pool.spawn(B, announceEofThenPause));
  ASSERT_TRUE(Pool.spawn(C, announceEofThenPause));

  // A sees EOF on its input only if neither B nor C inherited the write
  // end of A's input pipe.
  Pool.closeInput(A);
  ASSERT_TRUE(pollOnce(Pool, A, 2000)) << "A never saw EOF on its input";
  ipc::MsgType Type{};
  std::string Body;
  ASSERT_TRUE(A.Reader.next(Type, Body));
  EXPECT_EQ(Body, "eof");
  EXPECT_FALSE(A.Eof) << "A is alive until it is killed";

  // The owner sees EOF on A's output within one poll only if no sibling
  // (and not the owner) holds a copy of its write end.
  Pool.kill(A, "test kill");
  ASSERT_TRUE(pollOnce(Pool, A, 2000));
  EXPECT_TRUE(A.Eof);
  ChildExit Exit = Pool.reap(A);
  EXPECT_NE(Exit.What.find("killed by SIGKILL (test kill)"), std::string::npos)
      << Exit.What;
  EXPECT_EQ(A.Pid, -1);

  // The younger siblings were untouched by all of this.
  for (Child *S : {&B, &C}) {
    EXPECT_FALSE(pollOnce(Pool, *S, 0));
    Pool.kill(*S, "test over");
    Pool.reap(*S);
  }
}

TEST(ProcessPool, ProtocolViolationReapsLiveChildPromptly) {
  ChildPool Pool;
  Child C;
  ASSERT_TRUE(Pool.spawn(C, [](int In, int Out) {
    (void)!::write(Out, "garbage, not a frame", 20);
    // SIGALRM bounds the block, so a reap that waits instead of killing
    // fails the timing check below rather than hanging the suite.
    ::alarm(5);
    char B;
    while (::read(In, &B, 1) > 0) {
    } // blocks: the owner keeps the input open
    std::_Exit(0);
  }));
  ASSERT_TRUE(pollOnce(Pool, C, 2000));
  ipc::MsgType Type{};
  std::string Body;
  EXPECT_FALSE(C.Reader.next(Type, Body));
  ASSERT_TRUE(C.Reader.corrupt());
  ASSERT_FALSE(C.Eof) << "the child must still be alive for this test";

  // The owner reaps straight away, without a kill of its own: the reap
  // must not wait on a child that is blocked on its input.
  auto Start = std::chrono::steady_clock::now();
  ChildExit Exit = Pool.reap(C);
  EXPECT_LT(std::chrono::steady_clock::now() - Start, RetireGrace);
  EXPECT_NE(Exit.What.find("killed by SIGKILL"), std::string::npos)
      << Exit.What;
  EXPECT_EQ(Exit.What.find("OOM"), std::string::npos) << Exit.What;
  EXPECT_EQ(C.Pid, -1);
  EXPECT_EQ(C.FromFd, -1);
}

} // namespace
