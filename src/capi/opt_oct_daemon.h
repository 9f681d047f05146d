/*===- capi/opt_oct_daemon.h - C API for the analysis daemon ----*- C -*-===*
 *
 * C-linkage client for a running optoctd analysis daemon (src/server):
 * connect to its Unix-domain socket, submit named mini-IMP programs,
 * and read the verdicts back. The daemon memoizes results in a
 * content-addressed invariant cache, so repeated submissions of the
 * same program and options return byte-identical results without
 * re-analysis; each request runs in a supervised worker process on the
 * daemon side, so a request that crashes the analyzer is reported as
 * OPT_OCT_BATCH_JOB_CRASHED to this client only — the daemon and other
 * clients keep going.
 *
 * Both connect flavors return the same kind of handle: a replica-aware
 * client (server/replica.h) over one or more endpoints. Robustness:
 * connect returns NULL when no daemon listens; analyze returns NULL
 * when every endpoint failed at the transport (and, for a replica
 * handle, local fallback is off); the handle reconnects on its next
 * call. All accessors tolerate NULL results and return the documented
 * error value. Status codes are shared with the batch C API
 * (opt_oct_batch.h).
 *
 *===---------------------------------------------------------------------===*/

#ifndef OPTOCT_CAPI_OPT_OCT_DAEMON_H
#define OPTOCT_CAPI_OPT_OCT_DAEMON_H

#include "opt_oct_batch.h" /* OPT_OCT_BATCH_JOB_* status codes */

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct opt_oct_daemon_t opt_oct_daemon_t;
typedef struct opt_oct_daemon_result_t opt_oct_daemon_result_t;

/* Connects to the daemon listening on the Unix socket `socket_path`.
 * NULL if none (or if it names the removed TCP transport). The
 * handle is a one-endpoint replica client: no local fallback, no
 * receive timeout (a long analysis waits), single-shot until
 * opt_oct_daemon_set_retry. */
opt_oct_daemon_t *opt_oct_daemon_connect(const char *socket_path);
void opt_oct_daemon_disconnect(opt_oct_daemon_t *d);

/* Replica-tier handle over a comma-separated list of Unix socket paths
 * (spaces around items are ignored): each analyze fails over across
 * replicas from the last one that answered and — when `local_fallback`
 * is nonzero — degrades to in-process analysis when every replica is
 * down, byte-identical to a daemon reply and flagged "local" in
 * opt_oct_daemon_result_path. Connections are opened lazily, so this
 * returns non-NULL even with every replica down (availability is
 * decided per request); NULL only on invalid arguments, which include
 * an endpoint of the removed TCP transport. */
opt_oct_daemon_t *opt_oct_daemon_connect_replicas(const char *endpoints,
                                                  int local_fallback);

/* Retry policy for subsequent analyze calls on this handle. By default
 * (max_attempts 1) every call is one sweep over the endpoints; only a
 * pooled connection gone stale (daemon restarted) is reconnected and
 * resent once. With max_attempts > 1, a sweep that ends in transport
 * errors or "overloaded" sheds is repeated up to max_attempts times,
 * with capped exponential backoff plus jitter between sweeps, honoring
 * the daemon's own backoff hint. base_backoff_ms 0 keeps the default (25);
 * max_backoff_ms 0 keeps the default (2000). Non-retryable outcomes
 * (rejections, served crash/timeout verdicts) are never retried. */
void opt_oct_daemon_set_retry(opt_oct_daemon_t *d, unsigned max_attempts,
                              unsigned base_backoff_ms,
                              unsigned max_backoff_ms);

/* Submits one program and blocks for the verdict. NULL on invalid
 * arguments or transport failure (daemon gone mid-request). A NULL
 * `name` or `source` is rejected here, not sent. */
opt_oct_daemon_result_t *opt_oct_daemon_analyze(opt_oct_daemon_t *d,
                                                const char *name,
                                                const char *source);

/* Like opt_oct_daemon_analyze with engine options: `widening_delay`
 * joins before widening, `narrowing_passes` descending sweeps,
 * `max_dbm_cells` allocation budget (0 = unlimited). Results for
 * different options are cached independently. */
opt_oct_daemon_result_t *
opt_oct_daemon_analyze_opts(opt_oct_daemon_t *d, const char *name,
                            const char *source, unsigned widening_delay,
                            unsigned narrowing_passes,
                            uint64_t max_dbm_cells);

/* Result accessors (NULL-tolerant). */

/* 1 when the daemon served a verdict; 0 when it rejected the request
 * (malformed input) or shed it under load (see .._result_overloaded);
 * -1 on a NULL result. */
int opt_oct_daemon_result_ok(const opt_oct_daemon_result_t *r);
/* 1 when the daemon shed the request under load — the one *retryable*
 * failure; retry after .._result_retry_ms(r) milliseconds (or raise
 * max_attempts via opt_oct_daemon_set_retry and let the handle do it). */
int opt_oct_daemon_result_overloaded(const opt_oct_daemon_result_t *r);
/* The daemon's suggested backoff in ms when overloaded; 0 otherwise. */
uint64_t opt_oct_daemon_result_retry_ms(const opt_oct_daemon_result_t *r);
/* 1 when the verdict was replayed from the invariant cache. */
int opt_oct_daemon_result_cached(const opt_oct_daemon_result_t *r);
/* The request's content-address (cache key); 0 on NULL. */
uint64_t opt_oct_daemon_result_key(const opt_oct_daemon_result_t *r);
/* One of the OPT_OCT_BATCH_JOB_* codes; -1 on NULL/rejected. */
int opt_oct_daemon_result_status(const opt_oct_daemon_result_t *r);
/* Rejection or analysis error text ("" when none). */
const char *opt_oct_daemon_result_error(const opt_oct_daemon_result_t *r);
unsigned opt_oct_daemon_result_asserts_proven(const opt_oct_daemon_result_t *r);
unsigned opt_oct_daemon_result_asserts_total(const opt_oct_daemon_result_t *r);
/* How a result was obtained, for every handle: "primary" (the
 * preferred endpoint answered on the first sweep), "failover", or
 * "local". "" for NULL input. */
const char *opt_oct_daemon_result_path(const opt_oct_daemon_result_t *r);
/* Loop-head invariants, in RPO; i < .._num_invariants(r). */
size_t opt_oct_daemon_result_num_invariants(const opt_oct_daemon_result_t *r);
const char *opt_oct_daemon_result_invariant(const opt_oct_daemon_result_t *r,
                                            size_t i);

void opt_oct_daemon_result_free(opt_oct_daemon_result_t *r);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* OPTOCT_CAPI_OPT_OCT_DAEMON_H */
