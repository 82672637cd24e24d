/* Native inner loops of Set_Builder: the stacked kernel (`stacked_rounds`)
 * and the healthy-root search probes (`probe_level`, further below).
 *
 * One `stacked_rounds` call runs every expansion round (round 2 onward) for a whole batch of
 * syndromes over one compiled CSR topology.  Per syndrome it must stay
 * bit-identical to the rows oracle, `_set_builder_oracle` in set_builder.py
 * — the differential suite pins it on every family.  The flat order that
 * keeps a whole stack's rounds identical to the sequential procedure:
 *
 *   - Testers are visited in frontier order (ascending flat keys
 *     `syndrome * n + node`, so syndrome-blocked and node-ascending), and
 *     each tester's row positions in ascending order.  That flat order is
 *     what makes first-zero admission and lookup discounting deterministic.
 *   - A candidate occurrence is *consulted* (counted against its syndrome's
 *     lookup budget) iff its key has not already been admitted this round;
 *     the occurrence that admits a key is its first 0-result, and it is
 *     consulted too.  Members as of round start are never candidates.
 *   - The admitted keys, ascending, form the next round's frontier.
 *
 * `member` doubles as the per-round scoreboard: 0 = outside the set,
 * 1 = member, 2 = admitted this round (committed back to 1 before the next
 * round begins, so the caller only ever sees 0/1).  First-zero admission
 * makes the admitting tester the key's only writer, so `parent` is written
 * on the spot.
 *
 * Nothing is sorted.  An admission also sets the node's bit in its
 * syndrome's admitted bitset (ceil(n/64) words) and widens that syndrome's
 * touched-word span.  The commit pass walks the syndromes in ascending
 * order and each span's words with count-trailing-zeros, clearing them as
 * it goes, so the next frontier comes out in ascending flat-key order —
 * the order a sort of the admissions would give.  It costs at most
 * ceil(n/64) words per syndrome per round, and in practice only the
 * touched span.  Scratch: 8 bytes per flat key (the frontier), one bit per
 * flat key (the bitsets) and two words per syndrome (the spans).
 *
 * Read modes.  Each syndrome arrives as a `syndrome_t`.  Buffer mode
 * (`buf` set) is the flat pair-layout buffer, tester u's row at
 * pair_indptr[u].  Mask mode (`buf` NULL) is what a seeded build keeps:
 * `mask` marks the faulty nodes, a healthy tester u answers
 * s_u(v, w) = mask[v] | mask[w], and a faulty tester's row is read from
 * the side table at side_base[k], k being its index in the ascending
 * `fault_ids`.  `tester_row` finds a tester's row once per tester and
 * `read_result` reads one result in either mode.  A faulty tester missing
 * from `fault_ids`, or a side row that would overrun `side_len`, is never
 * read: both kernels return MISSING_SIDE_ROW instead.
 *
 * Built with the system C compiler on first use (see native.py).  Everything
 * is C99 + libc, no Python API, plus the `__builtin_ctzll` intrinsic, which
 * every compiler native.py tries (cc, gcc, clang) provides.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MISSING_SIDE_ROW (-4)

typedef struct {
    const uint8_t *buf;         /* buffer mode: num_pairs results; else NULL */
    const uint8_t *mask;        /* mask mode: n bytes, nonzero = faulty */
    const int64_t *fault_ids;   /* num_faults faulty testers, ascending */
    const int64_t *side_base;   /* num_faults row offsets into side */
    const uint8_t *side;        /* side_len bytes: the faulty testers' rows */
    int64_t num_faults;
    int64_t side_len;
} syndrome_t;

/* Tester u's results in slot order, or NULL for a healthy mask-mode tester
 * (its results follow from the mask).  Sets *bad when u is a faulty
 * mask-mode tester without an in-bounds side row. */
static inline const uint8_t *tester_row(
    const syndrome_t *s, const int64_t *pair_indptr, int64_t u, int *bad)
{
    if (s->buf)
        return s->buf + pair_indptr[u];
    if (!s->mask[u])
        return NULL;
    int64_t lo = 0, hi = s->num_faults;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (s->fault_ids[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    int64_t len = pair_indptr[u + 1] - pair_indptr[u];
    if (lo == s->num_faults || s->fault_ids[lo] != u || s->side_base[lo] < 0
        || s->side_base[lo] > s->side_len - len) {
        *bad = 1;
        return NULL;
    }
    return s->side + s->side_base[lo];
}

/* s_u(v, w) for the pair at row positions a != b of a degree-d tester
 * whose row `tester_row` returned. */
static inline int read_result(
    const uint8_t *row, const uint8_t *mask,
    int64_t a, int64_t b, int64_t d, int64_t v, int64_t w)
{
    if (!row)
        return mask[v] | mask[w];
    int64_t i = a < b ? a : b;
    int64_t j = a < b ? b : a;
    return row[i * (2 * d - i - 1) / 2 + (j - i - 1)];
}

/* Returns 0 on success, a negative error code on a failed allocation (-1),
 * a tester whose tree parent is not in its row (-2), a frontier0 that is
 * not strictly ascending flat keys below num_syndromes * n (-3) or a
 * faulty tester without a side row (MISSING_SIDE_ROW). */
int64_t stacked_rounds(
    const int64_t *indptr,          /* n + 1 */
    const int32_t *indices,         /* num_entries, rows sorted ascending */
    const int64_t *pair_indptr,     /* n + 1, per-node pair-slot base */
    const syndrome_t *syndromes,    /* num_syndromes read descriptors */
    int64_t n,
    int64_t num_syndromes,
    const int64_t *frontier0,       /* round-1 admissions, ascending flat keys */
    int64_t frontier0_len,
    uint8_t *member,                /* num_syndromes * n */
    int64_t *parent,                /* num_syndromes * n */
    int64_t *lookups,               /* num_syndromes */
    int64_t *rounds,                /* num_syndromes */
    uint8_t *contributed,           /* num_syndromes * n */
    int64_t *contrib_count)         /* num_syndromes */
{
    int64_t cap = num_syndromes * n;
    int64_t words = (n + 63) / 64;
    for (int64_t t = 0; t < frontier0_len; t++) {
        if (frontier0[t] < (t ? frontier0[t - 1] + 1 : 0) || frontier0[t] >= cap)
            return -3;
    }
    int64_t *cur = malloc((size_t)cap * sizeof(int64_t));
    uint64_t *admitted = calloc((size_t)(num_syndromes * words), sizeof(uint64_t));
    /* Touched-word span [span_lo, span_hi) of each syndrome's bitset. */
    int64_t *span_lo = malloc((size_t)num_syndromes * 2 * sizeof(int64_t));
    int64_t *span_hi = span_lo + num_syndromes;
    int64_t rc = 0;
    if (cur == NULL || admitted == NULL || span_lo == NULL) {
        rc = -1;
        goto done;
    }
    for (int64_t b = 0; b < num_syndromes; b++) {
        span_lo[b] = words;
        span_hi[b] = 0;
    }
    memcpy(cur, frontier0, (size_t)frontier0_len * sizeof(int64_t));
    int64_t cur_len = frontier0_len;

    while (cur_len > 0) {
        int64_t b = 0, bn = 0;
        for (int64_t t = 0; t < cur_len; t++) {
            int64_t key = cur[t];
            while (key >= bn + n) { /* ascending keys: step, never divide */
                b++;
                bn += n;
            }
            int64_t u = key - bn;
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
                rc = -2;
                goto done;
            }

            int bad = 0;
            const uint8_t *row = tester_row(syndromes + b, pair_indptr, u, &bad);
            if (bad) {
                rc = MISSING_SIDE_ROW;
                goto done;
            }
            const uint8_t *mask = syndromes[b].mask;
            uint64_t *bits = admitted + b * words;
            int64_t consulted = 0;
            for (int64_t w = 0; w < d; w++) {
                int64_t v = indices[lo + w];
                int64_t kv = bn + v;
                if (member[kv]) /* member, or already admitted this round */
                    continue;
                consulted++;
                if (read_result(row, mask, w, pp, d, v, p) == 0) {
                    int64_t word = v >> 6;
                    member[kv] = 2;
                    parent[kv] = u;
                    bits[word] |= (uint64_t)1 << (v & 63);
                    if (word < span_lo[b])
                        span_lo[b] = word;
                    if (word >= span_hi[b])
                        span_hi[b] = word + 1;
                }
            }
            lookups[b] += consulted;
        }

        /* Commit: syndromes ascending, each span's bits ascending, so the
         * next frontier is the admissions in ascending flat-key order (empty
         * when nothing was admitted, which ends the loop). */
        cur_len = 0;
        for (b = 0, bn = 0; b < num_syndromes; b++, bn += n) {
            if (span_lo[b] >= span_hi[b])
                continue;
            rounds[b]++;
            uint64_t *bits = admitted + b * words;
            for (int64_t word = span_lo[b]; word < span_hi[b]; word++) {
                uint64_t set = bits[word];
                bits[word] = 0;
                while (set) {
                    int64_t kv = bn + word * 64 + __builtin_ctzll(set);
                    set &= set - 1;
                    member[kv] = 1;
                    cur[cur_len++] = kv;
                    int64_t cu = bn + parent[kv];
                    if (!contributed[cu]) {
                        contributed[cu] = 1;
                        contrib_count[b]++;
                    }
                }
            }
            span_lo[b] = words;
            span_hi[b] = 0;
        }
    }

done:
    free(cur);
    free(admitted);
    free(span_lo);
    return rc;
}

/* ------------------------------------------------------------------------
 * Healthy-root search probes.
 *
 * `probe_level` runs the diagnosis driver's probes of one partition level
 * (or one fallback attempt) in order and stops at the first probe whose
 * contributor certificate fires.  Each probe is the rows oracle
 * `_set_builder_oracle` in set_builder.py, transcribed statement for
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
 * Returns the number of probes run, or a negative code: -1 on a bad start
 * node, MISSING_SIDE_ROW on a faulty tester without a side row.
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

/* One probe; 0, or MISSING_SIDE_ROW with `mark` cleared again. */
static int probe_one(
    const int64_t *indptr, const int32_t *indices, const int64_t *pair_indptr,
    const syndrome_t *syn, int64_t delta, int64_t u0,
    const int32_t *class_of, int32_t cls, int64_t max_nodes,
    uint8_t *mark, int32_t *parent, int32_t *tree, int64_t *record)
{
    const int budgeted = max_nodes >= 0;
    const uint8_t *mask = syn->mask;
    int64_t lookups = 0, rounds = 0, contributors = 0;
    int truncated = 0, certified = 0, bad = 0;

    mark[u0] = 1;
    tree[0] = (int32_t)u0;
    int64_t tree_count = 1;

    /* Round 1: the root's allowed neighbour pairs.  `mark` is 1 exactly for
     * the root and the nodes admitted so far, and the root is not in its
     * own row, so mark[v] is the `in_added` flag here. */
    int64_t lo0 = indptr[u0];
    int64_t d0 = indptr[u0 + 1] - lo0;
    const uint8_t *row0 = tester_row(syn, pair_indptr, u0, &bad);
    int64_t added = 0;
    for (int64_t a = 0; a < d0 && !bad; a++) {
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
            if (read_result(row0, mask, a, b, d0, v, w) == 0) {
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
    if (bad)
        goto clear;
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
            const uint8_t *row = tester_row(syn, pair_indptr, u, &bad);
            if (bad)
                break;
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
                lookups++;
                if (read_result(row, mask, pos, pos_t, d, v, t_u) == 0) {
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
        if (bad) {
            tree_count += new_count;
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

clear:
    for (int64_t t = 0; t < tree_count; t++)
        mark[tree[t]] = 0;
    record[0] = tree_count;
    record[1] = lookups;
    record[2] = certified;
    record[3] = truncated;
    record[4] = rounds;
    return bad ? MISSING_SIDE_ROW : 0;
}

int64_t probe_level(
    const int64_t *indptr,          /* n + 1 */
    const int32_t *indices,         /* num_entries, rows sorted ascending */
    const int64_t *pair_indptr,     /* n + 1 */
    const syndrome_t *syn,          /* one syndrome's read descriptor */
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
        if (probe_one(indptr, indices, pair_indptr, syn, delta, u0, class_of,
                      (int32_t)k, max_nodes, mark, parent, tree, record))
            return MISSING_SIDE_ROW;
        if (record[2])
            return k + 1;
    }
    return num_probes;
}
