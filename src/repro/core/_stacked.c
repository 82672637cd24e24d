/* Native stages of a seeded diagnosis, one call each: the seeded slot pass
 * (`seeded_build`), the healthy-root search (`probe_plan`) and the final
 * stacked Set_Builder run (`stacked_rounds`).  Each must stay bit-identical
 * to its reference in Python — the slot pass to `_reference_slot_pass` in
 * array_syndrome.py, the other two to the rows oracle `_set_builder_oracle`
 * in set_builder.py — and the differential suite pins all three on every
 * family.
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
 * read: the kernels return MISSING_SIDE_ROW instead.
 *
 * Every entry checks the inputs it cannot bound before it reads through
 * them and answers a violation with one of the negative codes below
 * (mirrored in native.py).
 *
 * Built with the system C compiler on first use (see native.py).  Everything
 * is C99 + libc, no Python API, plus the `__builtin_ctzll` intrinsic, which
 * every compiler native.py tries (cc, gcc, clang) provides.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define NO_MEMORY (-1)          /* a scratch allocation failed */
#define PARENT_NOT_IN_ROW (-2)  /* a tester's tree parent is not its neighbour */
#define BAD_NODE (-3)           /* a root, start or fault id outside [0, n), or
                                   fault ids not strictly ascending */
#define MISSING_SIDE_ROW (-4)   /* a faulty tester without an in-bounds side row */
#define BAD_PLAN (-5)           /* probe levels out of order, a class table index
                                   out of range, or a start outside its class */
#define SHORT_BUFFER (-6)       /* an output the caller sized too small */
#define BAD_BEHAVIOR (-7)       /* a behaviour code outside the stock five */
#define MORE_WORDS (-8)         /* the coin words ran out: draw more, call again */

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

/* ------------------------------------------------------------------------
 * The seeded slot pass.
 *
 * `seeded_build` writes the mask form of the syndrome a fault set produces:
 * the n-byte fault mask, each faulty tester's side-table offset, the side
 * table itself, and every nonzero slot of the pair layout with its value.
 * Only a faulty tester or a neighbour of a fault has a nonzero slot, so it
 * marks those testers in a one-bit-per-node set and walks the set's words
 * with count-trailing-zeros: testers come out ascending, each tester's pairs
 * in slot order, so the offsets are emitted already sorted.
 *
 * The behaviour codes are the stock FaultyTesterBehavior names in order.
 * RANDOM draws one CPython `randint(0, 1)` per faulty-tester pair, in the
 * canonical order, from the Mersenne Twister words the caller drew with
 * `getrandbits` (little-endian, 4 bytes each): `randint(0, 1)` is
 * `_randbelow(2)`, which rejects a word whose top bit is set and otherwise
 * answers its bit 30, so only each word's last byte is read.  The other
 * four behaviours are computed from the mask.
 *
 * Returns the number of nonzero slots written, or NO_MEMORY, BAD_NODE
 * (fault ids not strictly ascending in [0, n)), BAD_BEHAVIOR, SHORT_BUFFER
 * (side_len is not the faulty testers' pair count, or the nonzero slots
 * outnumber `capacity`) or MORE_WORDS (RANDOM ran out of coin words; the
 * caller appends the generator's next words and calls again).
 * ------------------------------------------------------------------------ */
enum { RANDOM, ALL_ZERO, ALL_ONE, MIMIC, ANTI_MIMIC };

int64_t seeded_build(
    const int64_t *indptr,          /* n + 1 */
    const int32_t *indices,         /* num_entries, rows sorted ascending */
    const int64_t *pair_indptr,     /* n + 1 */
    int64_t n,
    const int64_t *fault_ids,       /* num_faults, strictly ascending */
    int64_t num_faults,
    int64_t behavior,               /* RANDOM .. ANTI_MIMIC */
    const uint8_t *coins,           /* RANDOM: num_coins coin words, 4 bytes each */
    int64_t num_coins,
    uint8_t *mask,                  /* n, written whole */
    int64_t *side_base,             /* num_faults */
    uint8_t *side,                  /* side_len */
    int64_t side_len,
    int64_t *offsets,               /* capacity */
    uint8_t *values,                /* capacity */
    int64_t capacity)
{
    if (behavior < RANDOM || behavior > ANTI_MIMIC)
        return BAD_BEHAVIOR;
    int64_t need = 0;
    for (int64_t k = 0; k < num_faults; k++) {
        int64_t f = fault_ids[k];
        if (f < 0 || f >= n || (k && f <= fault_ids[k - 1]))
            return BAD_NODE;
        side_base[k] = need;
        need += pair_indptr[f + 1] - pair_indptr[f];
    }
    if (need != side_len)
        return SHORT_BUFFER;
    int64_t words = (n + 63) / 64, max_degree = 0;
    uint64_t *near = calloc((size_t)words + 1, sizeof(uint64_t));
    if (near == NULL)
        return NO_MEMORY;
    memset(mask, 0, (size_t)n);
    for (int64_t k = 0; k < num_faults; k++) {
        int64_t f = fault_ids[k];
        mask[f] = 1;
        near[f >> 6] |= (uint64_t)1 << (f & 63);
        for (int64_t e = indptr[f]; e < indptr[f + 1]; e++) {
            int64_t u = indices[e];
            near[u >> 6] |= (uint64_t)1 << (u & 63);
            if (indptr[u + 1] - indptr[u] > max_degree)
                max_degree = indptr[u + 1] - indptr[u];
        }
    }
    /* A healthy tester's row positions that hold a fault. */
    int64_t *hits = malloc((size_t)(max_degree + 1) * sizeof(int64_t));
    if (hits == NULL) {
        free(near);
        return NO_MEMORY;
    }

#define EMIT(slot, value)                     \
    do {                                      \
        if (count == capacity)                \
            goto short_buffer;                \
        offsets[count] = (slot);              \
        values[count++] = (uint8_t)(value);   \
    } while (0)

    int64_t count = 0, k = 0, next_coin = 0;
    for (int64_t word = 0; word < words; word++) {
        for (uint64_t set = near[word]; set; set &= set - 1) {
            int64_t u = word * 64 + __builtin_ctzll(set);
            int64_t lo = indptr[u];
            int64_t d = indptr[u + 1] - lo;
            int64_t slot = pair_indptr[u];
            if (mask[u]) {
                /* Testers ascend, so the k-th faulty one is fault_ids[k]. */
                uint8_t *row = side + side_base[k++];
                for (int64_t i = 0; i < d; i++) {
                    int hv = mask[indices[lo + i]];
                    for (int64_t j = i + 1; j < d; j++, slot++, row++) {
                        int r = hv | mask[indices[lo + j]];
                        if (behavior == RANDOM) {
                            uint8_t top;
                            do {
                                if (next_coin == num_coins)
                                    goto more_words;
                                top = coins[4 * next_coin++ + 3];
                            } while (top & 0x80);
                            r = top >> 6;
                        } else if (behavior == ALL_ZERO)
                            r = 0;
                        else if (behavior == ALL_ONE)
                            r = 1;
                        else if (behavior == ANTI_MIMIC)
                            r ^= 1;
                        *row = (uint8_t)r;
                        if (r)
                            EMIT(slot, r);
                    }
                }
                continue;
            }
            /* Healthy: pair (i, j) answers 1 iff position i or j holds a
             * fault; pair (i, i + 1) sits at slot + i(2d - i - 1)/2. */
            int64_t h = 0, next = 0;
            for (int64_t i = 0; i < d; i++) {
                if (mask[indices[lo + i]])
                    hits[h++] = i;
            }
            for (int64_t i = 0; i + 1 < d; i++) {
                int64_t base = slot + i * (2 * d - i - 1) / 2;
                while (next < h && hits[next] <= i)
                    next++;
                if (mask[indices[lo + i]]) {
                    for (int64_t j = i + 1; j < d; j++)
                        EMIT(base + (j - i - 1), 1);
                } else {
                    for (int64_t q = next; q < h; q++)
                        EMIT(base + (hits[q] - i - 1), 1);
                }
            }
        }
    }
#undef EMIT
    free(near);
    free(hits);
    return count;

short_buffer:
    free(near);
    free(hits);
    return SHORT_BUFFER;

more_words:
    free(near);
    free(hits);
    return MORE_WORDS;
}

/* ------------------------------------------------------------------------
 * The stacked Set_Builder kernel.
 *
 * One `stacked_rounds` call runs every round, the root's pair scan
 * included, for a whole batch of syndromes over one compiled CSR topology.
 * Per syndrome it must stay bit-identical to the rows oracle.  The flat
 * order that keeps a whole stack's rounds identical to the sequential
 * procedure:
 *
 *   - Round 1 scans each root's neighbour pairs (i, j), i < j, in slot
 *     order, skips a pair whose members were both admitted already, and
 *     admits both members of a 0-result.
 *   - Later rounds visit testers in frontier order (ascending flat keys
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
 * ------------------------------------------------------------------------ */
/* Admit node v of the syndrome whose flat keys start at bn, with tester u;
 * `bits` is that syndrome's admitted bitset, `lo`/`hi` its touched span. */
static inline void admit(
    uint8_t *member, int64_t *parent, uint64_t *bits, int64_t *lo, int64_t *hi,
    int64_t bn, int64_t v, int64_t u)
{
    int64_t word = v >> 6;
    member[bn + v] = 2;
    parent[bn + v] = u;
    bits[word] |= (uint64_t)1 << (v & 63);
    if (word < *lo)
        *lo = word;
    if (word >= *hi)
        *hi = word + 1;
}

/* Commit a round: syndromes ascending, each span's bits ascending, so the
 * next frontier `cur` is the admissions in ascending flat-key order (empty
 * when nothing was admitted, which ends the run).  Returns its length. */
static int64_t commit(
    int64_t n, int64_t num_syndromes, int64_t words, uint64_t *admitted,
    int64_t *span_lo, int64_t *span_hi, uint8_t *member, const int64_t *parent,
    int64_t *cur, int64_t *rounds, uint8_t *contributed, int64_t *contrib_count)
{
    int64_t cur_len = 0;
    for (int64_t b = 0, bn = 0; b < num_syndromes; b++, bn += n) {
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
    return cur_len;
}

/* Returns 0 on success, or NO_MEMORY, PARENT_NOT_IN_ROW, BAD_NODE (a root
 * outside [0, n)) or MISSING_SIDE_ROW. */
int64_t stacked_rounds(
    const int64_t *indptr,          /* n + 1 */
    const int32_t *indices,         /* num_entries, rows sorted ascending */
    const int64_t *pair_indptr,     /* n + 1, per-node pair-slot base */
    const syndrome_t *syndromes,    /* num_syndromes read descriptors */
    int64_t n,
    int64_t num_syndromes,
    const int64_t *roots,           /* num_syndromes start nodes */
    uint8_t *member,                /* num_syndromes * n, zero on entry */
    int64_t *parent,                /* num_syndromes * n */
    int64_t *lookups,               /* num_syndromes */
    int64_t *rounds,                /* num_syndromes */
    uint8_t *contributed,           /* num_syndromes * n */
    int64_t *contrib_count)         /* num_syndromes */
{
    for (int64_t b = 0; b < num_syndromes; b++) {
        if (roots[b] < 0 || roots[b] >= n)
            return BAD_NODE;
    }
    int64_t words = (n + 63) / 64;
    int64_t *cur = malloc((size_t)(num_syndromes * n) * sizeof(int64_t));
    uint64_t *admitted = calloc((size_t)(num_syndromes * words), sizeof(uint64_t));
    /* Touched-word span [span_lo, span_hi) of each syndrome's bitset. */
    int64_t *span_lo = malloc((size_t)num_syndromes * 2 * sizeof(int64_t));
    int64_t *span_hi = span_lo + num_syndromes;
    int64_t rc = 0;
    if (cur == NULL || admitted == NULL || span_lo == NULL) {
        rc = NO_MEMORY;
        goto done;
    }
    for (int64_t b = 0; b < num_syndromes; b++) {
        span_lo[b] = words;
        span_hi[b] = 0;
    }

    /* Round 1: each root's pair scan.  member is 2 exactly for the nodes
     * this scan admitted (the root is 1 and not in its own row). */
    for (int64_t b = 0, bn = 0; b < num_syndromes; b++, bn += n) {
        int64_t u0 = roots[b];
        int64_t lo = indptr[u0];
        int64_t d = indptr[u0 + 1] - lo;
        int bad = 0;
        const uint8_t *row = tester_row(syndromes + b, pair_indptr, u0, &bad);
        if (bad) {
            rc = MISSING_SIDE_ROW;
            goto done;
        }
        const uint8_t *mask = syndromes[b].mask;
        uint64_t *bits = admitted + b * words;
        member[bn + u0] = 1;
        int64_t consulted = 0;
        for (int64_t i = 0; i < d; i++) {
            int64_t v = indices[lo + i];
            for (int64_t j = i + 1; j < d; j++) {
                int64_t w = indices[lo + j];
                if (member[bn + v] == 2 && member[bn + w] == 2)
                    continue;
                consulted++;
                if (read_result(row, mask, i, j, d, v, w) == 0) {
                    if (member[bn + v] != 2)
                        admit(member, parent, bits, span_lo + b, span_hi + b,
                              bn, v, u0);
                    if (member[bn + w] != 2)
                        admit(member, parent, bits, span_lo + b, span_hi + b,
                              bn, w, u0);
                }
            }
        }
        lookups[b] += consulted;
    }
    int64_t cur_len = commit(n, num_syndromes, words, admitted, span_lo,
                             span_hi, member, parent, cur, rounds, contributed,
                             contrib_count);

    /* Rounds >= 2. */
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
                rc = PARENT_NOT_IN_ROW;
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
                if (member[bn + v]) /* member, or already admitted this round */
                    continue;
                consulted++;
                if (read_result(row, mask, w, pp, d, v, p) == 0)
                    admit(member, parent, bits, span_lo + b, span_hi + b,
                          bn, v, u);
            }
            lookups[b] += consulted;
        }
        cur_len = commit(n, num_syndromes, words, admitted, span_lo, span_hi,
                         member, parent, cur, rounds, contributed,
                         contrib_count);
    }

done:
    free(cur);
    free(admitted);
    free(span_lo);
    return rc;
}

/* ------------------------------------------------------------------------
 * The healthy-root search.
 *
 * `probe_plan` runs the diagnosis driver's whole probe plan — every
 * partition level, then the fallback attempts — in order and stops at the
 * first probe whose contributor certificate fires.  Each probe is the rows
 * oracle `_set_builder_oracle` in set_builder.py, transcribed statement for
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
 * The plan is `num_levels` rows of PLAN_FIELDS int64: (end, table, budget).
 * Level l runs the probes starts[end of level l-1 .. end); its probe k
 * admits only nodes v with class_tables[table * n + v] == k, or every node
 * when table is -1; budget < 0 means no node budget.  A plan may hold
 * only the levels whose class tables the caller has built so far (the
 * driver walks a level's classes only when a search first reaches it); it
 * then resumes with a longer plan from probe `first`.
 *
 * Scratch is caller-owned and never allocated here: `mark` (n bytes) must
 * be all zero on entry and is all zero again on return, because each probe
 * clears exactly the nodes it touched; `parent` and `tree` (n int32 each)
 * carry no state between calls.  `tree` holds the probe's nodes in
 * admission-round order, so each round's frontier is one sorted segment.
 *
 * Probes run from index `first`.  Record t holds probe t's PROBE_FIELDS
 * int64: (nodes_explored, lookups, certified, truncated, rounds).  Returns
 * the index after the last probe run — the certified one or the plan's
 * last — or BAD_PLAN, BAD_NODE (both checked before any probe runs) or
 * MISSING_SIDE_ROW.
 * ------------------------------------------------------------------------ */
#define PLAN_FIELDS 3
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

int64_t probe_plan(
    const int64_t *indptr,          /* n + 1 */
    const int32_t *indices,         /* num_entries, rows sorted ascending */
    const int64_t *pair_indptr,     /* n + 1 */
    const syndrome_t *syn,          /* one syndrome's read descriptor */
    int64_t n,
    int64_t delta,
    const int64_t *starts,          /* num_probes start nodes, plan order */
    int64_t num_probes,
    int64_t first,                  /* the probe to resume from */
    const int64_t *levels,          /* num_levels * PLAN_FIELDS */
    int64_t num_levels,
    const int32_t *class_tables,    /* num_tables * n probed-class indices */
    int64_t num_tables,
    uint8_t *mark,                  /* n, zero on entry and on return */
    int32_t *parent,                /* n */
    int32_t *tree,                  /* n */
    int64_t *records)               /* num_probes * PROBE_FIELDS */
{
    int64_t begin = 0;
    if (first < 0 || first > num_probes)
        return BAD_PLAN;
    for (int64_t l = 0; l < num_levels; l++) {
        const int64_t *level = levels + l * PLAN_FIELDS;
        if (level[0] < begin || level[0] > num_probes || level[1] < -1
            || level[1] >= num_tables)
            return BAD_PLAN;
        const int32_t *class_of = level[1] < 0 ? NULL : class_tables + level[1] * n;
        for (int64_t t = begin; t < level[0]; t++) {
            if (starts[t] < 0 || starts[t] >= n)
                return BAD_NODE;
            if (class_of && class_of[starts[t]] != t - begin)
                return BAD_PLAN;
        }
        begin = level[0];
    }
    if (begin != num_probes)
        return BAD_PLAN;

    begin = 0;
    for (int64_t l = 0; l < num_levels; l++) {
        const int64_t *level = levels + l * PLAN_FIELDS;
        const int32_t *class_of = level[1] < 0 ? NULL : class_tables + level[1] * n;
        for (int64_t t = begin > first ? begin : first; t < level[0]; t++) {
            int64_t *record = records + t * PROBE_FIELDS;
            if (probe_one(indptr, indices, pair_indptr, syn, delta, starts[t],
                          class_of, (int32_t)(t - begin), level[2], mark,
                          parent, tree, record))
                return MISSING_SIDE_ROW;
            if (record[2])
                return t + 1;
        }
        begin = level[0];
    }
    return num_probes;
}
