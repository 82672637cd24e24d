/* Native inner loops of Set_Builder: the stacked kernel (`stacked_rounds`)
 * and the healthy-root search probes (`probe_level`, further below).
 *
 * One `stacked_rounds` call runs every expansion round (round 2 onward) for a whole batch of
 * syndromes over one compiled CSR topology.  The semantics are transcribed
 * from the numpy `_stacked_round` in set_builder.py and must stay
 * bit-identical to it — the differential suite pins both paths against the
 * sequential reference pipeline:
 *
 *   - Testers are visited in frontier order (sorted flat keys
 *     `syndrome * n + node`, so syndrome-blocked and node-ascending), and
 *     each tester's row positions in ascending order.  That flat order is
 *     what makes first-zero admission and lookup discounting deterministic.
 *   - A candidate occurrence is *consulted* (counted against its syndrome's
 *     lookup budget) iff its key has not already been admitted this round;
 *     the occurrence that admits a key is its first 0-result, and it is
 *     consulted too.  Members as of round start are never candidates.
 *   - The admitted keys, sorted ascending, form the next round's frontier.
 *
 * `member` doubles as the per-round scoreboard: 0 = outside the set,
 * 1 = member, 2 = admitted this round (committed back to 1 before the next
 * round begins, so the caller only ever sees 0/1).
 *
 * Built with the system C compiler on first use (see native.py); everything
 * is C99 + libc, no Python API.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    int64_t key;    /* flat syndrome * n + node */
    int64_t tester; /* admitting tester (the new node's tree parent) */
} admit_t;

static int cmp_admit(const void *a, const void *b)
{
    int64_t ka = ((const admit_t *)a)->key;
    int64_t kb = ((const admit_t *)b)->key;
    return (ka > kb) - (ka < kb);
}

/* Returns 0 on success, a negative error code on invariant violation. */
int64_t stacked_rounds(
    const int64_t *indptr,          /* n + 1 */
    const int32_t *indices,         /* num_entries, rows sorted ascending */
    const int64_t *pair_indptr,     /* n + 1, per-node pair-slot base */
    const uint8_t *const *buffers,  /* num_syndromes test-result arrays */
    int64_t n,
    int64_t num_syndromes,
    const int64_t *frontier0,       /* round-1 admissions, sorted flat keys */
    int64_t frontier0_len,
    uint8_t *member,                /* num_syndromes * n */
    int64_t *parent,                /* num_syndromes * n */
    int64_t *lookups,               /* num_syndromes */
    int64_t *rounds,                /* num_syndromes */
    uint8_t *contributed,           /* num_syndromes * n */
    int64_t *contrib_count)         /* num_syndromes */
{
    int64_t cap = num_syndromes * n;
    int64_t *cur = malloc((size_t)cap * sizeof(int64_t));
    admit_t *adm = malloc((size_t)cap * sizeof(admit_t));
    if (cur == NULL || adm == NULL) {
        free(cur);
        free(adm);
        return -1;
    }
    memcpy(cur, frontier0, (size_t)frontier0_len * sizeof(int64_t));
    int64_t cur_len = frontier0_len;

    while (cur_len > 0) {
        int64_t n_adm = 0;
        for (int64_t t = 0; t < cur_len; t++) {
            int64_t key = cur[t];
            int64_t b = key / n;
            int64_t u = key - b * n;
            int64_t p = parent[key];
            int64_t lo = indptr[u];
            int64_t d = indptr[u + 1] - lo;

            /* The tester's sorted row holds its tree parent exactly once. */
            int64_t pp = -1;
            for (int64_t w = 0; w < d; w++) {
                if (indices[lo + w] == p) {
                    pp = w;
                    break;
                }
            }
            if (pp < 0) {
                free(cur);
                free(adm);
                return -2;
            }

            const uint8_t *buf = buffers[b];
            int64_t base = pair_indptr[u];
            int64_t bn = b * n;
            int64_t consulted = 0;
            for (int64_t w = 0; w < d; w++) {
                int64_t kv = bn + indices[lo + w];
                if (member[kv]) /* member, or already admitted this round */
                    continue;
                consulted++;
                int64_t i = w < pp ? w : pp;
                int64_t j = w < pp ? pp : w;
                int64_t slot = base + i * (2 * d - i - 1) / 2 + (j - i - 1);
                if (buf[slot] == 0) {
                    member[kv] = 2;
                    adm[n_adm].key = kv;
                    adm[n_adm].tester = u;
                    n_adm++;
                }
            }
            lookups[b] += consulted;
        }
        if (n_adm == 0)
            break;

        /* Ascending keys == syndrome-blocked, node-ascending next frontier. */
        qsort(adm, (size_t)n_adm, sizeof(admit_t), cmp_admit);
        int64_t last_b = -1;
        for (int64_t a = 0; a < n_adm; a++) {
            int64_t kv = adm[a].key;
            int64_t u = adm[a].tester;
            int64_t b = kv / n;
            member[kv] = 1;
            parent[kv] = u;
            cur[a] = kv;
            if (b != last_b) {
                rounds[b]++;
                last_b = b;
            }
            int64_t cu = b * n + u;
            if (!contributed[cu]) {
                contributed[cu] = 1;
                contrib_count[b]++;
            }
        }
        cur_len = n_adm;
    }

    free(cur);
    free(adm);
    return 0;
}

/* ------------------------------------------------------------------------
 * Healthy-root search probes.
 *
 * `probe_level` runs the diagnosis driver's probes of one partition level
 * (or one fallback attempt) in order and stops at the first probe whose
 * contributor certificate fires.  Each probe is the scalar array path
 * `_set_builder_array` in set_builder.py, transcribed statement for
 * statement, with stop_on_certificate set, so that budget-truncated runs
 * agree too:
 *
 *   - Round 1 scans the root's allowed neighbour pairs in row order, skips
 *     a pair whose members were both admitted already, and compares the
 *     budget against the round-start tree size (1).
 *   - Later rounds visit the frontier ascending and each row in sorted
 *     order; tree and newly admitted nodes are skipped before the
 *     restriction test, and the budget is checked before every lookup.
 *   - A round commits its admissions, then updates the certificate; the
 *     certificate stop and the budget stop are checked at round start.
 *
 * A restricted probe k admits only nodes v with class_of[v] == k (the
 * caller's per-level table of probed classes); class_of == NULL runs
 * unrestricted.  max_nodes < 0 means no budget.
 *
 * Scratch is caller-owned and never allocated here: `mark` (n bytes) must
 * be all zero on entry and is all zero again on return, because each probe
 * clears exactly the nodes it touched; `parent` and `tree` (n int32 each)
 * carry no state between calls.  `tree` holds the probe's nodes in
 * admission-round order, so each round's frontier is one sorted segment.
 *
 * One record of PROBE_FIELDS int64 per probe run:
 *   (nodes_explored, lookups, certified, truncated, rounds).
 * Returns the number of probes run, or a negative code on a bad start node.
 * ------------------------------------------------------------------------ */
#define PROBE_FIELDS 5

static void sort_nodes(int32_t *a, int64_t len)
{
    if (len <= 16) {
        for (int64_t i = 1; i < len; i++) {
            int32_t x = a[i];
            int64_t j = i;
            for (; j > 0 && a[j - 1] > x; j--)
                a[j] = a[j - 1];
            a[j] = x;
        }
        return;
    }
    /* In-place heapsort: no allocation, O(len log len) worst case. */
    for (int64_t start = len / 2 - 1, end = len; end > 1;) {
        int64_t root;
        if (start >= 0) {
            root = start--;
        } else {
            end--;
            int32_t t = a[0];
            a[0] = a[end];
            a[end] = t;
            root = 0;
        }
        for (int64_t child; (child = 2 * root + 1) < end; root = child) {
            if (child + 1 < end && a[child + 1] > a[child])
                child++;
            if (a[root] >= a[child])
                break;
            int32_t t = a[root];
            a[root] = a[child];
            a[child] = t;
        }
    }
}

static inline int64_t pair_slot(int64_t base, int64_t i, int64_t j, int64_t d)
{
    return base + i * (2 * d - i - 1) / 2 + (j - i - 1);
}

static void probe_one(
    const int64_t *indptr, const int32_t *indices, const int64_t *pair_indptr,
    const uint8_t *buf, int64_t delta, int64_t u0,
    const int32_t *class_of, int32_t cls, int64_t max_nodes,
    uint8_t *mark, int32_t *parent, int32_t *tree, int64_t *record)
{
    const int budgeted = max_nodes >= 0;
    int64_t lookups = 0, rounds = 0, contributors = 0;
    int truncated = 0, certified = 0;

    mark[u0] = 1;
    tree[0] = (int32_t)u0;
    int64_t tree_count = 1;

    /* Round 1: the root's allowed neighbour pairs.  `mark` is 1 exactly for
     * the root and the nodes admitted so far, and the root is not in its
     * own row, so mark[v] is the `in_added` flag here. */
    int64_t lo0 = indptr[u0];
    int64_t d0 = indptr[u0 + 1] - lo0;
    int64_t base0 = pair_indptr[u0];
    int64_t added = 0;
    for (int64_t a = 0; a < d0; a++) {
        int32_t v = indices[lo0 + a];
        if (class_of && class_of[v] != cls)
            continue;
        if (budgeted && tree_count >= max_nodes) {
            truncated = 1;
            break;
        }
        for (int64_t b = a + 1; b < d0; b++) {
            int32_t w = indices[lo0 + b];
            if (class_of && class_of[w] != cls)
                continue;
            if (mark[v] && mark[w])
                continue;
            lookups++;
            if (buf[pair_slot(base0, a, b, d0)] == 0) {
                int32_t pair[2] = {v, w};
                for (int k = 0; k < 2; k++) {
                    int32_t node = pair[k];
                    if (!mark[node] && !(budgeted && tree_count >= max_nodes)) {
                        mark[node] = 1;
                        tree[1 + added++] = node;
                        parent[node] = (int32_t)u0;
                    }
                }
            }
        }
    }
    tree_count += added;
    if (added) {
        rounds = 1;
        contributors = 1;
    }
    if (contributors > delta)
        certified = 1;
    sort_nodes(tree + 1, added);

    /* Rounds >= 2: frontier tree[f_lo, f_hi); admissions append after it. */
    int64_t f_lo = 1, f_hi = 1 + added;
    while (f_hi > f_lo) {
        if (certified) {
            truncated = 1;
            break;
        }
        if (budgeted && tree_count >= max_nodes) {
            truncated = 1;
            break;
        }
        int64_t new_count = 0;
        for (int64_t t = f_lo; t < f_hi; t++) {
            int32_t u = tree[t];
            int64_t lo = indptr[u];
            int64_t d = indptr[u + 1] - lo;
            int64_t base = pair_indptr[u];
            /* bisect_left of the tester's tree parent in its sorted row */
            int32_t t_u = parent[u];
            int64_t pos_t = 0, hi = d;
            while (pos_t < hi) {
                int64_t mid = (pos_t + hi) / 2;
                if (indices[lo + mid] < t_u)
                    pos_t = mid + 1;
                else
                    hi = mid;
            }
            int contributed = 0;
            for (int64_t pos = 0; pos < d; pos++) {
                int32_t v = indices[lo + pos];
                if (mark[v])
                    continue;
                if (class_of && class_of[v] != cls)
                    continue;
                if (budgeted && tree_count + new_count >= max_nodes) {
                    truncated = 1;
                    break;
                }
                int64_t i = pos < pos_t ? pos : pos_t;
                int64_t j = pos < pos_t ? pos_t : pos;
                lookups++;
                if (buf[pair_slot(base, i, j, d)] == 0) {
                    mark[v] = 1;
                    tree[f_hi + new_count++] = v;
                    parent[v] = u;
                    contributed = 1;
                }
            }
            contributors += contributed;
            if (truncated)
                break;
        }
        if (new_count == 0)
            break;
        tree_count += new_count;
        rounds++;
        if (contributors > delta)
            certified = 1;
        sort_nodes(tree + f_hi, new_count);
        f_lo = f_hi;
        f_hi += new_count;
        if (truncated)
            break;
    }

    for (int64_t t = 0; t < tree_count; t++)
        mark[tree[t]] = 0;
    record[0] = tree_count;
    record[1] = lookups;
    record[2] = certified;
    record[3] = truncated;
    record[4] = rounds;
}

int64_t probe_level(
    const int64_t *indptr,          /* n + 1 */
    const int32_t *indices,         /* num_entries, rows sorted ascending */
    const int64_t *pair_indptr,     /* n + 1 */
    const uint8_t *buf,             /* one syndrome's test results */
    int64_t n,
    int64_t delta,
    const int64_t *starts,          /* num_probes start nodes, probe order */
    int64_t num_probes,
    const int32_t *class_of,        /* n probed-class indices, -1, or NULL */
    int64_t max_nodes,              /* node budget; < 0 for none */
    uint8_t *mark,                  /* n, zero on entry and on return */
    int32_t *parent,                /* n */
    int32_t *tree,                  /* n */
    int64_t *records)               /* num_probes * PROBE_FIELDS */
{
    for (int64_t k = 0; k < num_probes; k++) {
        int64_t u0 = starts[k];
        if (u0 < 0 || u0 >= n || (class_of && class_of[u0] != k))
            return -1;
        int64_t *record = records + k * PROBE_FIELDS;
        probe_one(indptr, indices, pair_indptr, buf, delta, u0,
                  class_of, (int32_t)k, max_nodes, mark, parent, tree, record);
        if (record[2])
            return k + 1;
    }
    return num_probes;
}
