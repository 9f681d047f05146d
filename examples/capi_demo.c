/*===- examples/capi_demo.c - Using OptOctagon from C ---------------------===
 *
 * The paper's deliverable is a C-library replacement: analyzers written
 * against APRON's C API keep working. This demo is plain C99 compiled
 * with a C compiler, driving the opt_oct_* surface: it abstracts the
 * paper's running example (x = 1; y = x; loop) step by step, then runs
 * a two-program batch through opt_oct_batch_run. It includes every C
 * header (the daemon client's too), so building it proves they compile
 * as C; ctest runs it.
 *
 * Build & run:  ./build/examples/capi_demo
 *
 *===----------------------------------------------------------------------===*/

#include "capi/opt_oct.h"
#include "capi/opt_oct_batch.h"
#include "capi/opt_oct_daemon.h"

#include <math.h>
#include <stdio.h>

static void print_bounds(opt_oct_t *o, const char *name, unsigned v) {
  double lo, hi;
  opt_oct_bounds(o, v, &lo, &hi);
  printf("  %s in [", name);
  if (isinf(lo))
    printf("-oo, ");
  else
    printf("%g, ", lo);
  if (isinf(hi))
    printf("+oo]\n");
  else
    printf("%g]\n", hi);
}

/* Whole programs through the batch runtime: a zeroed options struct is
 * the default threaded run. Returns nonzero unless both prove. */
static int run_batch(void) {
  const char *names[] = {"count", "copy"};
  const char *sources[] = {
      "var x; x = 0; while (x < 10) { x = x + 1; } assert(x <= 10);",
      "var x, y; x = 1; y = x; assert(y == 1);"};
  opt_oct_batch_options_t opts = {0};
  opt_oct_batch_report_t *r = opt_oct_batch_run(names, sources, 2, &opts);
  size_t i;
  int failed = r == NULL;
  printf("batch of %zu programs:\n", opt_oct_batch_num_jobs(r));
  for (i = 0; i < opt_oct_batch_num_jobs(r); ++i) {
    unsigned proven = opt_oct_batch_job_asserts_proven(r, i);
    unsigned total = opt_oct_batch_job_asserts_total(r, i);
    printf("  %s: %u/%u assertions proven\n", opt_oct_batch_job_name(r, i),
           proven, total);
    if (opt_oct_batch_job_status(r, i) != OPT_OCT_BATCH_JOB_OK ||
        proven != total)
      failed = 1;
  }
  opt_oct_batch_free(r);
  return failed;
}

int main(void) {
  enum { X = 0, Y = 1, M = 2 };

  printf("== OptOctagon C API demo (the paper's Fig. 2 example) ==\n");

  /* O1 = top over x, y, m. */
  opt_oct_t *o = opt_oct_top(3);
  printf("start: top, %u dimensions, %zu components\n",
         opt_oct_dimension(o), opt_oct_num_components(o));

  /* x = 1; y = x; */
  opt_oct_assign_const(o, X, 1.0);
  opt_oct_assign_var(o, Y, +1, X, 0.0);
  opt_oct_close(o);
  printf("after x = 1; y = x:\n");
  print_bounds(o, "x", X);
  print_bounds(o, "y", Y);
  print_bounds(o, "m", M);

  /* Loop head state: join of the pre-loop state with one unrolled
   * iteration under the guard x <= m. */
  opt_oct_t *body = opt_oct_copy(o);
  opt_oct_add_constraint(body, +1, X, -1, M, 0.0); /* x - m <= 0 */
  opt_oct_assign_var(body, X, +1, X, 1.0);         /* x = x + 1 */
  opt_oct_t *merged = opt_oct_join(o, body);
  printf("after one loop iteration joined in:\n");
  print_bounds(merged, "x", X);

  /* Widening accelerates convergence: the growing upper bound of x is
   * pushed to +oo, the stable lower bound stays. */
  opt_oct_t *widened = opt_oct_widening(o, merged);
  printf("after widening:\n");
  print_bounds(widened, "x", X);

  /* Inclusion and equality checks. */
  printf("body <= merged: %s\n",
         opt_oct_is_leq(body, merged) ? "yes" : "no");
  printf("merged == widened: %s\n",
         opt_oct_is_eq(merged, widened) ? "yes" : "no");

  /* Contradictions become bottom. */
  opt_oct_t *dead = opt_oct_copy(o);
  opt_oct_add_constraint(dead, +1, X, 0, 0, 0.0);  /*  x <= 0 */
  opt_oct_add_constraint(dead, -1, X, 0, 0, -1.0); /* -x <= -1 */
  printf("x <= 0 and x >= 1: %s\n",
         opt_oct_is_bottom(dead) ? "bottom" : "non-empty");

  opt_oct_free(dead);
  opt_oct_free(widened);
  opt_oct_free(merged);
  opt_oct_free(body);
  opt_oct_free(o);
  return run_batch();
}
