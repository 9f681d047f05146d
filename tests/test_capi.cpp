//===- tests/test_capi.cpp - C API shim tests ------------------------------===//

#include "capi/opt_oct.h"
#include "capi/opt_oct_batch.h"
#include "capi/opt_oct_daemon.h"
#include "server/client.h"
#include "server/server.h"
#include "support/faultinject.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

namespace {

TEST(CApi, TopBottomLifecycle) {
  opt_oct_t *Top = opt_oct_top(4);
  opt_oct_t *Bot = opt_oct_bottom(4);
  EXPECT_EQ(opt_oct_dimension(Top), 4u);
  EXPECT_TRUE(opt_oct_is_top(Top));
  EXPECT_FALSE(opt_oct_is_bottom(Top));
  EXPECT_TRUE(opt_oct_is_bottom(Bot));
  EXPECT_TRUE(opt_oct_is_leq(Bot, Top));
  EXPECT_FALSE(opt_oct_is_leq(Top, Bot));
  opt_oct_free(Top);
  opt_oct_free(Bot);
}

TEST(CApi, ConstraintsAndBounds) {
  opt_oct_t *O = opt_oct_top(3);
  opt_oct_add_constraint(O, +1, 0, 0, 0, 7.0);  //  v0 <= 7
  opt_oct_add_constraint(O, -1, 0, 0, 0, -2.0); // -v0 <= -2
  opt_oct_add_constraint(O, +1, 1, -1, 0, 1.0); //  v1 - v0 <= 1
  opt_oct_add_constraint(O, -1, 1, +1, 0, 0.0); //  v0 - v1 <= 0
  double Lo = 0, Hi = 0;
  opt_oct_bounds(O, 1, &Lo, &Hi);
  EXPECT_EQ(Lo, 2.0);
  EXPECT_EQ(Hi, 8.0);
  opt_oct_free(O);
}

TEST(CApi, AssignAndForget) {
  opt_oct_t *O = opt_oct_top(2);
  opt_oct_assign_const(O, 0, 5.0);
  opt_oct_assign_var(O, 1, +1, 0, 3.0); // v1 := v0 + 3
  double Lo = 0, Hi = 0;
  opt_oct_bounds(O, 1, &Lo, &Hi);
  EXPECT_EQ(Lo, 8.0);
  EXPECT_EQ(Hi, 8.0);
  opt_oct_forget(O, 0);
  opt_oct_bounds(O, 0, &Lo, &Hi);
  EXPECT_TRUE(std::isinf(Hi));
  opt_oct_bounds(O, 1, &Lo, &Hi);
  EXPECT_EQ(Lo, 8.0); // v1 keeps its derived value
  opt_oct_free(O);
}

TEST(CApi, MeetJoinWidening) {
  opt_oct_t *A = opt_oct_top(2);
  opt_oct_add_constraint(A, +1, 0, 0, 0, 1.0);
  opt_oct_t *B = opt_oct_top(2);
  opt_oct_add_constraint(B, +1, 0, 0, 0, 5.0);

  opt_oct_t *M = opt_oct_meet(A, B);
  double Lo = 0, Hi = 0;
  opt_oct_bounds(M, 0, &Lo, &Hi);
  EXPECT_EQ(Hi, 1.0);

  opt_oct_t *J = opt_oct_join(A, B);
  opt_oct_bounds(J, 0, &Lo, &Hi);
  EXPECT_EQ(Hi, 5.0);

  opt_oct_t *W = opt_oct_widening(A, B);
  opt_oct_bounds(W, 0, &Lo, &Hi);
  EXPECT_TRUE(std::isinf(Hi)); // bound grew: widened away

  opt_oct_t *N = opt_oct_narrowing(W, B);
  opt_oct_bounds(N, 0, &Lo, &Hi);
  EXPECT_EQ(Hi, 5.0); // narrowing recovers the finite bound

  opt_oct_free(A);
  opt_oct_free(B);
  opt_oct_free(M);
  opt_oct_free(J);
  opt_oct_free(W);
  opt_oct_free(N);
}

TEST(CApi, EqualityAndCopy) {
  opt_oct_t *A = opt_oct_top(2);
  opt_oct_add_constraint(A, +1, 0, +1, 1, 4.0);
  opt_oct_t *B = opt_oct_copy(A);
  EXPECT_TRUE(opt_oct_is_eq(A, B));
  opt_oct_add_constraint(B, +1, 0, +1, 1, 2.0);
  EXPECT_FALSE(opt_oct_is_eq(A, B));
  EXPECT_TRUE(opt_oct_is_leq(B, A));
  opt_oct_free(A);
  opt_oct_free(B);
}

TEST(CApi, ComponentsAndDimensions) {
  opt_oct_t *O = opt_oct_top(6);
  EXPECT_EQ(opt_oct_num_components(O), 0u);
  opt_oct_add_constraint(O, +1, 0, -1, 1, 3.0);
  opt_oct_add_constraint(O, +1, 2, -1, 3, 3.0);
  EXPECT_EQ(opt_oct_num_components(O), 2u);
  opt_oct_add_vars(O, 2);
  EXPECT_EQ(opt_oct_dimension(O), 8u);
  opt_oct_remove_trailing_vars(O, 4);
  EXPECT_EQ(opt_oct_dimension(O), 4u);
  // The 0-1 and 2-3 relations survive the removal of dimensions 4..7.
  EXPECT_EQ(opt_oct_num_components(O), 2u);
  opt_oct_free(O);
}

TEST(CApi, ContradictionBecomesBottom) {
  opt_oct_t *O = opt_oct_top(2);
  opt_oct_add_constraint(O, +1, 0, -1, 1, -1.0); // v0 - v1 <= -1
  opt_oct_add_constraint(O, +1, 1, -1, 0, -1.0); // v1 - v0 <= -1
  EXPECT_TRUE(opt_oct_is_bottom(O));
  opt_oct_free(O);
}

// Every entry point must tolerate NULL handles: no crash, and an
// unmistakable error value (predicates -1, accessors 0, bounds NaN).
TEST(CApi, NullHandlesAreHarmless) {
  opt_oct_free(nullptr);
  EXPECT_EQ(opt_oct_copy(nullptr), nullptr);
  EXPECT_EQ(opt_oct_dimension(nullptr), 0u);
  EXPECT_EQ(opt_oct_is_bottom(nullptr), -1);
  EXPECT_EQ(opt_oct_is_top(nullptr), -1);
  EXPECT_EQ(opt_oct_is_leq(nullptr, nullptr), -1);
  EXPECT_EQ(opt_oct_is_eq(nullptr, nullptr), -1);
  EXPECT_EQ(opt_oct_num_components(nullptr), 0u);
  EXPECT_EQ(opt_oct_meet(nullptr, nullptr), nullptr);
  EXPECT_EQ(opt_oct_join(nullptr, nullptr), nullptr);
  EXPECT_EQ(opt_oct_widening(nullptr, nullptr), nullptr);
  EXPECT_EQ(opt_oct_narrowing(nullptr, nullptr), nullptr);
  opt_oct_close(nullptr);
  opt_oct_add_constraint(nullptr, +1, 0, 0, 0, 1.0);
  opt_oct_assign_var(nullptr, 0, +1, 0, 0.0);
  opt_oct_assign_const(nullptr, 0, 0.0);
  opt_oct_forget(nullptr, 0);
  opt_oct_add_vars(nullptr, 1);
  opt_oct_remove_trailing_vars(nullptr, 1);

  double Lo = 0, Hi = 0;
  opt_oct_bounds(nullptr, 0, &Lo, &Hi);
  EXPECT_TRUE(std::isnan(Lo));
  EXPECT_TRUE(std::isnan(Hi));

  opt_oct_t *O = opt_oct_top(2);
  EXPECT_EQ(opt_oct_is_leq(O, nullptr), -1);
  EXPECT_EQ(opt_oct_is_leq(nullptr, O), -1);
  EXPECT_EQ(opt_oct_meet(O, nullptr), nullptr);
  opt_oct_free(O);
}

TEST(CApi, ZeroDimensionalOctagonWorks) {
  opt_oct_t *Top = opt_oct_top(0);
  opt_oct_t *Bot = opt_oct_bottom(0);
  ASSERT_NE(Top, nullptr);
  ASSERT_NE(Bot, nullptr);
  EXPECT_EQ(opt_oct_dimension(Top), 0u);
  EXPECT_EQ(opt_oct_is_top(Top), 1);
  EXPECT_EQ(opt_oct_is_bottom(Top), 0);
  opt_oct_close(Top);
  // Any dimension index is out of range: constraint dropped, bounds NaN.
  opt_oct_add_constraint(Top, +1, 0, 0, 0, 1.0);
  EXPECT_EQ(opt_oct_is_top(Top), 1);
  double Lo = 0, Hi = 0;
  opt_oct_bounds(Top, 0, &Lo, &Hi);
  EXPECT_TRUE(std::isnan(Lo));
  opt_oct_t *J = opt_oct_join(Top, Bot);
  ASSERT_NE(J, nullptr);
  EXPECT_EQ(opt_oct_is_top(J), 1);
  opt_oct_free(Top);
  opt_oct_free(Bot);
  opt_oct_free(J);
}

TEST(CApi, MismatchedDimensionsAreRejected) {
  opt_oct_t *A = opt_oct_top(2);
  opt_oct_t *B = opt_oct_top(3);
  EXPECT_EQ(opt_oct_is_leq(A, B), -1);
  EXPECT_EQ(opt_oct_is_eq(A, B), -1);
  EXPECT_EQ(opt_oct_meet(A, B), nullptr);
  EXPECT_EQ(opt_oct_join(A, B), nullptr);
  EXPECT_EQ(opt_oct_widening(A, B), nullptr);
  EXPECT_EQ(opt_oct_narrowing(A, B), nullptr);
  opt_oct_free(A);
  opt_oct_free(B);
}

TEST(CApi, InvalidConstraintsAreDroppedSoundly) {
  opt_oct_t *O = opt_oct_top(2);
  opt_oct_add_constraint(O, +2, 0, 0, 0, 1.0);  // Coefficient not +-1.
  opt_oct_add_constraint(O, +1, 9, 0, 0, 1.0);  // i out of range.
  opt_oct_add_constraint(O, +1, 0, +1, 9, 1.0); // j out of range.
  opt_oct_add_constraint(O, +1, 0, +1, 0, 1.0); // j == i aliases unary.
  opt_oct_add_constraint(O, +1, 0, +2, 1, 1.0); // coef_j not in {0,+-1}.
  EXPECT_EQ(opt_oct_is_top(O), 1); // All dropped: still top, never UB.
  opt_oct_free(O);
}

TEST(CApi, InvalidAssignmentHavocsTheTarget) {
  opt_oct_t *O = opt_oct_top(2);
  opt_oct_assign_const(O, 0, 5.0);
  // Valid target, invalid right-hand side: x0 does change, and the
  // only sound approximation of "to something" is to forget it.
  opt_oct_assign_var(O, 0, +3, 1, 0.0);
  double Lo = 0, Hi = 0;
  opt_oct_bounds(O, 0, &Lo, &Hi);
  EXPECT_TRUE(std::isinf(Hi));
  // Invalid target: a no-op, the element is untouched.
  opt_oct_assign_const(O, 7, 1.0);
  opt_oct_forget(O, 7);
  EXPECT_EQ(opt_oct_dimension(O), 2u);
  // Removing more dimensions than exist clamps instead of underflowing.
  opt_oct_remove_trailing_vars(O, 99);
  EXPECT_EQ(opt_oct_dimension(O), 0u);
  opt_oct_free(O);
}

// Batch C API error paths: invalid arguments yield NULL or error
// values, never UB or aborts.
TEST(CApiBatch, InvalidArgumentsAreRejected) {
  const char *Names[] = {"a"};
  const char *Sources[] = {"var x; x = 1;"};
  opt_oct_batch_options_t Serial = {};
  Serial.jobs = 1;
  EXPECT_EQ(opt_oct_batch_run(nullptr, Sources, 1, &Serial), nullptr);
  EXPECT_EQ(opt_oct_batch_run(Names, nullptr, 1, &Serial), nullptr);
  EXPECT_EQ(opt_oct_batch_run(nullptr, Sources, 1, nullptr), nullptr);

  // Count == 0 with NULL arrays is a valid empty batch.
  opt_oct_batch_report_t *Empty =
      opt_oct_batch_run(nullptr, nullptr, 0, &Serial);
  ASSERT_NE(Empty, nullptr);
  EXPECT_EQ(opt_oct_batch_num_jobs(Empty), 0u);
  opt_oct_batch_free(Empty);

  // NULL report accessors.
  opt_oct_batch_free(nullptr);
  EXPECT_EQ(opt_oct_batch_num_jobs(nullptr), 0u);
  EXPECT_EQ(opt_oct_batch_workers(nullptr), 0u);
  EXPECT_EQ(opt_oct_batch_job_name(nullptr, 0), nullptr);
  EXPECT_EQ(opt_oct_batch_job_ok(nullptr, 0), -1);
  EXPECT_EQ(opt_oct_batch_job_status(nullptr, 0), -1);
  EXPECT_EQ(opt_oct_batch_job_attempts(nullptr, 0), 0u);
  EXPECT_EQ(opt_oct_batch_job_error(nullptr, 0), nullptr);

  // Out-of-range job index on a real report.
  opt_oct_batch_report_t *R = opt_oct_batch_run(Names, Sources, 1, &Serial);
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(opt_oct_batch_job_name(R, 5), nullptr);
  EXPECT_EQ(opt_oct_batch_job_ok(R, 5), -1);
  EXPECT_EQ(opt_oct_batch_job_status(R, 5), -1);
  EXPECT_EQ(opt_oct_batch_job_attempts(R, 5), 0u);
  opt_oct_batch_free(R);

  // Option combinations the runtime cannot honor are NULL too: resume
  // with no journal to resume from, and per-worker process fences on a
  // sharded run.
  opt_oct_batch_options_t Bad = {};
  Bad.resume = 1;
  EXPECT_EQ(opt_oct_batch_run(Names, Sources, 1, &Bad), nullptr);
  Bad.nodes = 2;
  EXPECT_EQ(opt_oct_batch_run(Names, Sources, 1, &Bad), nullptr);
  Bad = {};
  Bad.nodes = 2;
  Bad.isolate_process = 1;
  EXPECT_EQ(opt_oct_batch_run(Names, Sources, 1, &Bad), nullptr);
  Bad.isolate_process = 0;
  Bad.max_rss_mb = 256;
  EXPECT_EQ(opt_oct_batch_run(Names, Sources, 1, &Bad), nullptr);
}

TEST(CApiBatch, NullEntriesBecomeCleanJobsNotCrashes) {
  const char *Names[] = {nullptr, "ok"};
  const char *Sources[] = {nullptr, "var x; x = 1; assert(x <= 1);"};
  // NULL options are the zeroed defaults.
  opt_oct_batch_report_t *R = opt_oct_batch_run(Names, Sources, 2, nullptr);
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(opt_oct_batch_num_jobs(R), 2u);
  // NULL name is replaced, NULL source analyzed as the empty program:
  // a trivially Ok job with nothing to prove — and no UB anywhere.
  EXPECT_STREQ(opt_oct_batch_job_name(R, 0), "(null)");
  EXPECT_EQ(opt_oct_batch_job_status(R, 0), OPT_OCT_BATCH_JOB_OK);
  EXPECT_EQ(opt_oct_batch_job_asserts_total(R, 0), 0u);
  EXPECT_EQ(opt_oct_batch_job_status(R, 1), OPT_OCT_BATCH_JOB_OK);
  EXPECT_EQ(opt_oct_batch_job_asserts_proven(R, 1), 1u);
  opt_oct_batch_free(R);
}

TEST(CApiBatch, BudgetedRunReportsStatusAndAttempts) {
  const char *Names[] = {"tiny", "broken"};
  const char *Sources[] = {"var x; x = 2; assert(x <= 2);", "var x = ;"};
  // Generous budgets that never trip; max_attempts 0 is clamped to 1.
  opt_oct_batch_options_t Opts = {};
  Opts.jobs = 1;
  Opts.deadline_ms = 60000;
  Opts.max_dbm_cells = 1u << 30;
  Opts.max_attempts = 0;
  opt_oct_batch_report_t *R = opt_oct_batch_run(Names, Sources, 2, &Opts);
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(opt_oct_batch_job_status(R, 0), OPT_OCT_BATCH_JOB_OK);
  EXPECT_EQ(opt_oct_batch_job_attempts(R, 0), 1u);
  EXPECT_EQ(opt_oct_batch_job_status(R, 1), OPT_OCT_BATCH_JOB_FAILED);
  EXPECT_STRNE(opt_oct_batch_job_error(R, 1), "");
  opt_oct_batch_free(R);
}

TEST(CApiBatch, ShardedRunMatchesSingleNodeVerdicts) {
  const char *Names[] = {"a", "b", "c", "d", "e"};
  const char *Sources[] = {
      "var x; x = 1; assert(x <= 1);", "var x; x = 2; assert(x <= 2);",
      "var x; x = 3; assert(x <= 3);", "var x; x = 4; assert(x <= 4);",
      "var x; x = 5; assert(x <= 5);"};
  opt_oct_batch_options_t Serial = {};
  Serial.jobs = 1;
  opt_oct_batch_report_t *Base = opt_oct_batch_run(Names, Sources, 5, &Serial);
  ASSERT_NE(Base, nullptr);
  // Temp journal prefix, default lease/shard knobs, two nodes.
  opt_oct_batch_options_t Sharded = {};
  Sharded.nodes = 2;
  opt_oct_batch_report_t *S = opt_oct_batch_run(Names, Sources, 5, &Sharded);
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(opt_oct_batch_num_jobs(S), 5u);
  EXPECT_EQ(opt_oct_batch_jobs_lost(S), 0u);
  for (size_t I = 0; I != 5; ++I) {
    EXPECT_STREQ(opt_oct_batch_job_name(S, I),
                 opt_oct_batch_job_name(Base, I));
    EXPECT_EQ(opt_oct_batch_job_status(S, I),
              opt_oct_batch_job_status(Base, I));
    EXPECT_EQ(opt_oct_batch_job_asserts_proven(S, I),
              opt_oct_batch_job_asserts_proven(Base, I));
  }
  opt_oct_batch_free(S);
  opt_oct_batch_free(Base);

  // Error paths: NULL arrays, and resume without a real prefix to
  // resume from.
  EXPECT_EQ(opt_oct_batch_run(nullptr, Sources, 1, &Sharded), nullptr);
  Sharded.resume = 1;
  EXPECT_EQ(opt_oct_batch_run(Names, Sources, 5, &Sharded), nullptr);
  EXPECT_EQ(opt_oct_batch_jobs_lost(nullptr), 0u);
}

TEST(CApiBatch, JournaledRunResumesThroughOneCall) {
  const char *Names[] = {"a", "b", "broken"};
  const char *Sources[] = {"var x; x = 1; assert(x <= 1);",
                           "var y; y = 2; assert(y <= 1);", "var z = ;"};
  std::string Journal = ::testing::TempDir() + "optoct_capi_journal." +
                        std::to_string(::getpid());
  std::remove(Journal.c_str());
  opt_oct_batch_options_t Opts = {};
  Opts.jobs = 2;
  Opts.journal = Journal.c_str();
  opt_oct_batch_report_t *First = opt_oct_batch_run(Names, Sources, 3, &Opts);
  ASSERT_NE(First, nullptr);
  EXPECT_EQ(opt_oct_batch_jobs_resumed(First), 0u);

  // Every job is in the journal now: the resumed run runs nothing and
  // reports the same verdicts.
  Opts.resume = 1;
  opt_oct_batch_report_t *Again = opt_oct_batch_run(Names, Sources, 3, &Opts);
  ASSERT_NE(Again, nullptr);
  EXPECT_EQ(opt_oct_batch_jobs_resumed(Again), 3u);
  for (size_t I = 0; I != 3; ++I) {
    EXPECT_STREQ(opt_oct_batch_job_name(Again, I),
                 opt_oct_batch_job_name(First, I));
    EXPECT_EQ(opt_oct_batch_job_status(Again, I),
              opt_oct_batch_job_status(First, I));
    EXPECT_EQ(opt_oct_batch_job_asserts_proven(Again, I),
              opt_oct_batch_job_asserts_proven(First, I));
    EXPECT_EQ(opt_oct_batch_job_asserts_total(Again, I),
              opt_oct_batch_job_asserts_total(First, I));
  }
  opt_oct_batch_free(Again);
  opt_oct_batch_free(First);

  // A journal written by a different job set is refused, not merged.
  EXPECT_EQ(opt_oct_batch_run(Names, Sources, 2, &Opts), nullptr);
  std::remove(Journal.c_str());
}

TEST(CApiBatch, IsolatedRunContainsWorkerCrash) {
  // A job poisoned with a real SIGSEGV costs one worker process, never
  // the embedding process: the report comes back with the poisoned job
  // marked CRASHED and its neighbors analyzed normally.
  optoct::support::FaultPlan::global().clear();
  std::string Error;
  ASSERT_TRUE(optoct::support::FaultPlan::global().parseRule(
      "site=batch.job,kind=segv,job=boom", Error))
      << Error;

  const char *Names[] = {"tiny", "boom", "other"};
  const char *Sources[] = {"var x; x = 2; assert(x <= 2);",
                           "var y; y = 1; assert(y <= 1);",
                           "var z; z = 3; assert(z <= 3);"};
  opt_oct_batch_options_t Opts = {};
  Opts.jobs = 2;
  Opts.isolate_process = 1;
  Opts.max_attempts = 1;
  opt_oct_batch_report_t *R = opt_oct_batch_run(Names, Sources, 3, &Opts);
  optoct::support::FaultPlan::global().clear();
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(opt_oct_batch_num_jobs(R), 3u);
  EXPECT_EQ(opt_oct_batch_job_status(R, 0), OPT_OCT_BATCH_JOB_OK);
  EXPECT_EQ(opt_oct_batch_job_status(R, 1), OPT_OCT_BATCH_JOB_CRASHED);
  EXPECT_NE(std::string(opt_oct_batch_job_error(R, 1)).find("SIGSEGV"),
            std::string::npos);
  EXPECT_EQ(opt_oct_batch_job_status(R, 2), OPT_OCT_BATCH_JOB_OK);
  EXPECT_EQ(opt_oct_batch_job_asserts_proven(R, 0), 1u);
  opt_oct_batch_free(R);

  EXPECT_EQ(opt_oct_batch_run(nullptr, Sources, 1, &Opts), nullptr);
  EXPECT_EQ(opt_oct_batch_run(Names, nullptr, 1, &Opts), nullptr);
}

// --- Daemon C API, against an in-test daemon --------------------------------

const char *DaemonLoop = "var x, y, n;\n"
                         "n = havoc(); assume(n >= 0 && n <= 30);\n"
                         "x = 0; y = 0;\n"
                         "while (x < n) {\n"
                         "  x = x + 1;\n"
                         "  if (y < x) { y = y + 1; }\n"
                         "}\n"
                         "assert(y <= x);\n"
                         "assert(x <= 30);\n";

/// Starts an in-process daemon on a std::thread, like the Daemon.*
/// fixture in test_server.cpp, and tears it down in TearDown. Fault
/// rules must be armed BEFORE startServer(): workers inherit the global
/// plan at fork.
class CApiDaemon : public ::testing::Test {
protected:
  void SetUp() override { optoct::support::FaultPlan::global().clear(); }

  void TearDown() override {
    stopServer();
    optoct::support::FaultPlan::global().clear();
  }

  static std::string socketPath(const std::string &Name) {
    return ::testing::TempDir() + "optoct_capi_" + Name + "." +
           std::to_string(::getpid()) + ".sock";
  }

  void startServer(optoct::server::ServerOptions Opts) {
    Opts.SocketPath = socketPath("daemon");
    SocketPath = Opts.SocketPath;
    Srv = std::make_unique<optoct::server::Server>(std::move(Opts));
    std::string Error;
    ASSERT_TRUE(Srv->start(Error)) << Error;
    Loop = std::thread([this] { Srv->serve(); });
  }

  void stopServer() {
    if (Loop.joinable()) {
      Srv->requestStop();
      Loop.join();
    }
    Srv.reset();
    if (!SocketPath.empty())
      ::unlink(SocketPath.c_str());
  }

  void arm(const std::string &Rule) {
    std::string Error;
    ASSERT_TRUE(optoct::support::FaultPlan::global().parseRule(Rule, Error))
        << Error;
  }

  static std::vector<std::string>
  invariants(const opt_oct_daemon_result_t *R) {
    std::vector<std::string> Out;
    for (size_t I = 0; I != opt_oct_daemon_result_num_invariants(R); ++I)
      Out.push_back(opt_oct_daemon_result_invariant(R, I));
    return Out;
  }

  std::unique_ptr<optoct::server::Server> Srv;
  std::thread Loop;
  std::string SocketPath;
};

TEST_F(CApiDaemon, ConnectReturnsNullWithoutADaemon) {
  EXPECT_EQ(opt_oct_daemon_connect(nullptr), nullptr);
  EXPECT_EQ(opt_oct_daemon_connect(socketPath("nobody").c_str()), nullptr);
  EXPECT_EQ(opt_oct_daemon_connect_replicas(nullptr, 0, 1), nullptr);
  EXPECT_EQ(opt_oct_daemon_connect_replicas(",", 0, 1), nullptr);
  opt_oct_daemon_disconnect(nullptr);
}

TEST_F(CApiDaemon, AnalyzeThenCachedReplayHasTheSameKeyAndInvariants) {
  optoct::server::ServerOptions Opts;
  Opts.Workers = 1;
  startServer(Opts);
  opt_oct_daemon_t *D = opt_oct_daemon_connect(SocketPath.c_str());
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(opt_oct_daemon_analyze(D, nullptr, DaemonLoop), nullptr);

  opt_oct_daemon_result_t *Cold = opt_oct_daemon_analyze(D, "loop", DaemonLoop);
  ASSERT_NE(Cold, nullptr);
  EXPECT_EQ(opt_oct_daemon_result_ok(Cold), 1);
  EXPECT_EQ(opt_oct_daemon_result_status(Cold), OPT_OCT_BATCH_JOB_OK);
  EXPECT_EQ(opt_oct_daemon_result_cached(Cold), 0);
  EXPECT_EQ(opt_oct_daemon_result_asserts_proven(Cold), 2u);
  EXPECT_EQ(opt_oct_daemon_result_asserts_total(Cold), 2u);
  EXPECT_STREQ(opt_oct_daemon_result_error(Cold), "");
  EXPECT_FALSE(invariants(Cold).empty());
  // Every handle reports how its result was served.
  EXPECT_STREQ(opt_oct_daemon_result_path(Cold), "primary");

  opt_oct_daemon_result_t *Warm = opt_oct_daemon_analyze(D, "loop", DaemonLoop);
  ASSERT_NE(Warm, nullptr);
  EXPECT_EQ(opt_oct_daemon_result_cached(Warm), 1);
  EXPECT_EQ(opt_oct_daemon_result_key(Warm), opt_oct_daemon_result_key(Cold));
  EXPECT_EQ(invariants(Warm), invariants(Cold));
  EXPECT_EQ(opt_oct_daemon_result_asserts_proven(Warm), 2u);

  opt_oct_daemon_result_free(Warm);
  opt_oct_daemon_result_free(Cold);
  opt_oct_daemon_disconnect(D);
}

TEST_F(CApiDaemon, AnalyzeOptsIsCachedSeparatelyFromAnalyze) {
  optoct::server::ServerOptions Opts;
  Opts.Workers = 1;
  startServer(Opts);
  opt_oct_daemon_t *D = opt_oct_daemon_connect(SocketPath.c_str());
  ASSERT_NE(D, nullptr);

  opt_oct_daemon_result_t *Plain =
      opt_oct_daemon_analyze(D, "loop", DaemonLoop);
  ASSERT_NE(Plain, nullptr);
  EXPECT_EQ(opt_oct_daemon_result_cached(Plain), 0);
  // Non-default engine options are a different request: a miss with its
  // own key, then a hit on that key.
  opt_oct_daemon_result_t *Tuned = opt_oct_daemon_analyze_opts(
      D, "loop", DaemonLoop, /*widening_delay=*/5, /*narrowing_passes=*/0,
      /*max_dbm_cells=*/0);
  ASSERT_NE(Tuned, nullptr);
  EXPECT_EQ(opt_oct_daemon_result_ok(Tuned), 1);
  EXPECT_EQ(opt_oct_daemon_result_cached(Tuned), 0);
  EXPECT_NE(opt_oct_daemon_result_key(Tuned), opt_oct_daemon_result_key(Plain));
  opt_oct_daemon_result_t *Again = opt_oct_daemon_analyze_opts(
      D, "loop", DaemonLoop, 5, 0, 0);
  ASSERT_NE(Again, nullptr);
  EXPECT_EQ(opt_oct_daemon_result_cached(Again), 1);
  EXPECT_EQ(opt_oct_daemon_result_key(Again), opt_oct_daemon_result_key(Tuned));

  opt_oct_daemon_result_free(Again);
  opt_oct_daemon_result_free(Tuned);
  opt_oct_daemon_result_free(Plain);
  opt_oct_daemon_disconnect(D);
}

TEST_F(CApiDaemon, SetRetryAbsorbsAShed) {
  // One slow worker and a one-deep queue: of four concurrent distinct
  // requests at least two are shed on arrival. Handles that opted into
  // retries must still all come back served.
  arm("site=batch.job,kind=slow,ms=200,hits=100");
  optoct::server::ServerOptions Opts;
  Opts.Workers = 1;
  Opts.MaxQueueDepth = 1;
  Opts.OverloadRetryMs = 20;
  startServer(Opts);

  constexpr int K = 4;
  std::vector<opt_oct_daemon_t *> Handles;
  for (int T = 0; T != K; ++T) {
    Handles.push_back(opt_oct_daemon_connect(SocketPath.c_str()));
    ASSERT_NE(Handles.back(), nullptr);
    opt_oct_daemon_set_retry(Handles.back(), /*max_attempts=*/12,
                             /*base_backoff_ms=*/40, /*max_backoff_ms=*/0);
  }
  opt_oct_daemon_set_retry(nullptr, 2, 0, 0); // NULL-tolerant
  std::atomic<int> Ready{0}, Served{0}, Shed{0};
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  for (int T = 0; T != K; ++T)
    Threads.emplace_back([&, T] {
      std::string Name = "flood" + std::to_string(T);
      std::string Source = "var x; x = " + std::to_string(T) +
                           "; assert(x <= " + std::to_string(T) + ");";
      Ready.fetch_add(1);
      while (!Go.load())
        std::this_thread::yield();
      opt_oct_daemon_result_t *R =
          opt_oct_daemon_analyze(Handles[T], Name.c_str(), Source.c_str());
      if (opt_oct_daemon_result_ok(R) == 1)
        Served.fetch_add(1);
      if (opt_oct_daemon_result_overloaded(R) == 1)
        Shed.fetch_add(1);
      opt_oct_daemon_result_free(R);
    });
  while (Ready.load() != K)
    std::this_thread::yield();
  Go.store(true);
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Served.load(), K) << "every shed request must be retried";
  EXPECT_EQ(Shed.load(), 0);

  optoct::server::DaemonClient Client;
  optoct::server::DaemonStats Stats;
  std::string Error;
  ASSERT_TRUE(Client.connect(SocketPath, Error)) << Error;
  ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
  EXPECT_GE(Stats.ShedQueueFull, 1u) << "the burst must overflow the bound";
  EXPECT_EQ(Stats.Served, static_cast<std::uint64_t>(K));
  for (opt_oct_daemon_t *D : Handles)
    opt_oct_daemon_disconnect(D);
}

TEST_F(CApiDaemon, ReplicasFailOverPastADeadFirstEndpoint) {
  optoct::server::ServerOptions Opts;
  Opts.Workers = 1;
  startServer(Opts);
  std::string List = socketPath("dead") + "," + SocketPath;
  opt_oct_daemon_t *D =
      opt_oct_daemon_connect_replicas(List.c_str(), /*hedge_after_ms=*/0,
                                      /*local_fallback=*/0);
  ASSERT_NE(D, nullptr);
  opt_oct_daemon_result_t *R = opt_oct_daemon_analyze(D, "loop", DaemonLoop);
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(opt_oct_daemon_result_ok(R), 1);
  EXPECT_STREQ(opt_oct_daemon_result_path(R), "failover");
  opt_oct_daemon_result_free(R);
  opt_oct_daemon_disconnect(D);
}

TEST_F(CApiDaemon, AllDownWithLocalFallbackMatchesTheDaemon) {
  optoct::server::ServerOptions Opts;
  Opts.Workers = 1;
  startServer(Opts);
  opt_oct_daemon_t *Live = opt_oct_daemon_connect(SocketPath.c_str());
  ASSERT_NE(Live, nullptr);
  opt_oct_daemon_result_t *Daemon =
      opt_oct_daemon_analyze(Live, "loop", DaemonLoop);
  ASSERT_NE(Daemon, nullptr);
  ASSERT_EQ(opt_oct_daemon_result_ok(Daemon), 1);
  opt_oct_daemon_disconnect(Live);
  std::string Down = SocketPath;
  stopServer();

  // Lazily connected: the handle exists with every replica down.
  std::string List = Down + "," + socketPath("dead");
  opt_oct_daemon_t *D = opt_oct_daemon_connect_replicas(List.c_str(), 0, 1);
  ASSERT_NE(D, nullptr);
  opt_oct_daemon_result_t *Local =
      opt_oct_daemon_analyze(D, "loop", DaemonLoop);
  ASSERT_NE(Local, nullptr);
  EXPECT_STREQ(opt_oct_daemon_result_path(Local), "local");
  EXPECT_EQ(opt_oct_daemon_result_ok(Local), 1);
  EXPECT_EQ(opt_oct_daemon_result_status(Local),
            opt_oct_daemon_result_status(Daemon));
  EXPECT_EQ(opt_oct_daemon_result_key(Local),
            opt_oct_daemon_result_key(Daemon));
  EXPECT_EQ(opt_oct_daemon_result_asserts_proven(Local),
            opt_oct_daemon_result_asserts_proven(Daemon));
  EXPECT_EQ(invariants(Local), invariants(Daemon));
  opt_oct_daemon_result_free(Local);
  opt_oct_daemon_result_free(Daemon);
  opt_oct_daemon_disconnect(D);
}

TEST_F(CApiDaemon, AllDownWithoutFallbackReturnsNull) {
  std::string List = socketPath("dead1") + "," + socketPath("dead2");
  opt_oct_daemon_t *D = opt_oct_daemon_connect_replicas(List.c_str(), 0, 0);
  ASSERT_NE(D, nullptr);
  opt_oct_daemon_result_t *R = opt_oct_daemon_analyze(D, "loop", DaemonLoop);
  EXPECT_EQ(R, nullptr);
  // The accessors tolerate the NULL result.
  EXPECT_EQ(opt_oct_daemon_result_ok(R), -1);
  EXPECT_EQ(opt_oct_daemon_result_status(R), -1);
  EXPECT_STREQ(opt_oct_daemon_result_path(R), "");
  EXPECT_EQ(opt_oct_daemon_result_num_invariants(R), 0u);
  opt_oct_daemon_result_free(R);
  opt_oct_daemon_disconnect(D);
}

} // namespace
