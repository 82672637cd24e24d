/* Native stages of a seeded diagnosis, one call each: the seeded slot pass
 * (`seeded_build`), the healthy-root search (`probe_plan`) and the final
 * stacked Set_Builder run (`stacked_rounds`).  The last two share one
 * transcription of paper §4.1, `run_one`.  Each entry must stay
 * bit-identical to its reference in Python — the slot pass to
 * `_reference_slot_pass` in array_syndrome.py, the other two to the rows
 * oracle `_set_builder_oracle` in set_builder.py — and the differential
 * suite pins all three on every family.
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
 * read: the entries return MISSING_SIDE_ROW instead.
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
 * Set_Builder.
 *
 * `run_one` runs one Set_Builder(u0[, H]) to its end: the rows oracle
 * `_set_builder_oracle` in set_builder.py, transcribed statement for
 * statement, so that restricted, budget-truncated and certificate-stopped
 * runs agree too.  `probe_plan` calls it once per probe and `stacked_rounds`
 * once per stacked syndrome.
 *
 *   - Round 1 scans the root's allowed neighbour pairs (i, j), i < j, in
 *     slot order, skips a pair whose members were both admitted already,
 *     admits both members of a 0-result, and compares the budget against
 *     the round-start set size (1).
 *   - Later rounds visit the frontier ascending and each tester's sorted row
 *     in order; members and nodes admitted this round are skipped before
 *     the class test, and the budget is checked before every lookup.  A
 *     tester u reads s_u(v, t(u)), so its row must hold its tree parent
 *     t(u); when it does not, the run stops with PARENT_NOT_IN_ROW.
 *   - A round commits its admissions; the certificate stop (when asked
 *     for) and the budget stop are checked at round start.
 *
 * First-zero admission makes the admitting tester a node's only writer, so
 * `mark` and `parent` are written on the spot.  A tester is on the frontier
 * once, so the distinct contributors are the testers that admitted a node.
 *
 * Nothing is sorted.  An admission also sets the node's bit in the round's
 * bitset (ceil(n/64) words) and widens its touched-word span; the commit
 * walks that span with count-trailing-zeros, clearing it as it goes, so the
 * next frontier comes out ascending.
 *
 * Scratch: `mark` (n bytes, nonzero = in the set) must be zero on entry,
 * `parent` (n int32) gets t(v) for every admitted v, `tree` (n int32) gets
 * the set in admission-round order, so each round's frontier is one sorted
 * segment, and `bits` must be zero on entry and is zero again on return.
 * The first record[0] nodes of `tree` are the set, after a refusal too.
 *
 * The run's record is RECORD_FIELDS int64: (nodes_explored, lookups,
 * certified, truncated, rounds).  Returns 0, or MISSING_SIDE_ROW or
 * PARENT_NOT_IN_ROW.
 * ------------------------------------------------------------------------ */
#define RECORD_FIELDS 5

/* Admit v with tester u: mark it, set t(v) = u and v's bit in the round's
 * bitset, and widen the bitset's touched-word span [*lo, *hi). */
static inline void admit(
    uint8_t *mark, int32_t *parent, uint64_t *bits, int64_t *lo, int64_t *hi,
    int32_t v, int32_t u)
{
    int64_t word = v >> 6;
    mark[v] = 1;
    parent[v] = u;
    bits[word] |= (uint64_t)1 << (v & 63);
    if (word < *lo)
        *lo = word;
    if (word >= *hi)
        *hi = word + 1;
}

/* Commit a round: write its admissions to `out` ascending, clear the
 * span's words and empty the span.  Returns the number written. */
static int64_t commit(uint64_t *bits, int64_t *lo, int64_t *hi, int32_t *out)
{
    int64_t count = 0;
    for (int64_t word = *lo; word < *hi; word++) {
        for (uint64_t set = bits[word]; set; set &= set - 1)
            out[count++] = (int32_t)(word * 64 + __builtin_ctzll(set));
        bits[word] = 0;
    }
    *lo = INT64_MAX;
    *hi = 0;
    return count;
}

static int64_t run_one(
    const int64_t *indptr, const int32_t *indices, const int64_t *pair_indptr,
    const syndrome_t *syn, int64_t delta, int32_t u0,
    const int32_t *class_of,        /* NULL, or admit only class_of[v] == cls */
    int32_t cls,
    int64_t max_nodes,              /* < 0: no node budget */
    int stop_on_certificate,
    uint8_t *mark, int32_t *parent, int32_t *tree, uint64_t *bits,
    int64_t *record)
{
    const int budgeted = max_nodes >= 0;
    const uint8_t *mask = syn->mask;
    int64_t lookups = 0, rounds = 0, contributors = 0, rc = 0;
    int64_t span_lo = INT64_MAX, span_hi = 0;
    int truncated = 0, bad = 0;

    mark[u0] = 1;
    tree[0] = u0;
    int64_t size = 1; /* |U| as of round start */

    /* Round 1: the root's allowed neighbour pairs.  The root is not in its
     * own row, so mark[v] here says this scan admitted v. */
    int64_t lo0 = indptr[u0];
    int64_t d0 = indptr[u0 + 1] - lo0;
    const uint8_t *row0 = tester_row(syn, pair_indptr, u0, &bad);
    if (bad) {
        rc = MISSING_SIDE_ROW;
        goto done;
    }
    for (int64_t a = 0; a < d0; a++) {
        int32_t v = indices[lo0 + a];
        if (class_of && class_of[v] != cls)
            continue;
        if (budgeted && size >= max_nodes) {
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
                if (!mark[v])
                    admit(mark, parent, bits, &span_lo, &span_hi, v, u0);
                if (!mark[w])
                    admit(mark, parent, bits, &span_lo, &span_hi, w, u0);
            }
        }
    }
    size += commit(bits, &span_lo, &span_hi, tree + 1);
    if (size > 1) {
        rounds = 1;
        contributors = 1;
    }

    /* Rounds >= 2: the frontier is tree[f_lo, f_hi); a round's admissions
     * commit after it. */
    int64_t f_lo = 1, f_hi = size;
    while (f_hi > f_lo) {
        if ((stop_on_certificate && contributors > delta)
            || (budgeted && size >= max_nodes)) {
            truncated = 1;
            break;
        }
        int64_t new_count = 0;
        for (int64_t t = f_lo; t < f_hi && !truncated; t++) {
            int32_t u = tree[t], p = parent[u];
            int64_t lo = indptr[u];
            int64_t d = indptr[u + 1] - lo;
            const uint8_t *row = tester_row(syn, pair_indptr, u, &bad);
            int64_t pp = 0; /* the sorted row holds t(u) once */
            while (pp < d && indices[lo + pp] != p)
                pp++;
            if (bad || pp == d) {
                rc = bad ? MISSING_SIDE_ROW : PARENT_NOT_IN_ROW;
                break;
            }
            int64_t before = new_count;
            for (int64_t pos = 0; pos < d; pos++) {
                int32_t v = indices[lo + pos];
                if (mark[v]) /* a member, or admitted this round */
                    continue;
                if (class_of && class_of[v] != cls)
                    continue;
                if (budgeted && size + new_count >= max_nodes) {
                    truncated = 1;
                    break;
                }
                lookups++;
                if (read_result(row, mask, pos, pp, d, v, p) == 0) {
                    admit(mark, parent, bits, &span_lo, &span_hi, v, u);
                    new_count++;
                }
            }
            contributors += new_count > before;
        }
        size += commit(bits, &span_lo, &span_hi, tree + f_hi);
        if (rc || size == f_hi)
            break;
        rounds++;
        f_lo = f_hi;
        f_hi = size;
        if (truncated)
            break;
    }

done:
    record[0] = size;
    record[1] = lookups;
    record[2] = contributors > delta;
    record[3] = truncated;
    record[4] = rounds;
    return rc;
}

/* ------------------------------------------------------------------------
 * The stacked final run.
 *
 * One `stacked_rounds` call runs the unrestricted, unbudgeted Set_Builder
 * of every syndrome of a stack over one compiled CSR topology, one
 * `run_one` per syndrome: syndrome b's set and tree are written to
 * member[b * n ..] and parent[b * n ..], its record to
 * records[b * RECORD_FIELDS ..].  The tree and bitset scratch is allocated
 * once per call and serves every syndrome, so it does not grow with the
 * stack.
 *
 * Returns 0, or NO_MEMORY, BAD_NODE (a root outside [0, n), checked before
 * anything is written), PARENT_NOT_IN_ROW or MISSING_SIDE_ROW.
 * ------------------------------------------------------------------------ */
int64_t stacked_rounds(
    const int64_t *indptr,          /* n + 1 */
    const int32_t *indices,         /* num_entries, rows sorted ascending */
    const int64_t *pair_indptr,     /* n + 1, per-node pair-slot base */
    const syndrome_t *syndromes,    /* num_syndromes read descriptors */
    int64_t n,
    int64_t num_syndromes,
    int64_t delta,
    const int64_t *roots,           /* num_syndromes start nodes */
    uint8_t *member,                /* num_syndromes * n, zero on entry */
    int32_t *parent,                /* num_syndromes * n */
    int64_t *records)               /* num_syndromes * RECORD_FIELDS */
{
    for (int64_t b = 0; b < num_syndromes; b++) {
        if (roots[b] < 0 || roots[b] >= n)
            return BAD_NODE;
    }
    int32_t *tree = malloc((size_t)n * sizeof(int32_t));
    uint64_t *bits = calloc((size_t)(n + 63) / 64, sizeof(uint64_t));
    int64_t rc = tree == NULL || bits == NULL ? NO_MEMORY : 0;
    for (int64_t b = 0; b < num_syndromes && !rc; b++)
        rc = run_one(indptr, indices, pair_indptr, syndromes + b, delta,
                     (int32_t)roots[b], NULL, 0, -1, 0, member + b * n,
                     parent + b * n, tree, bits, records + b * RECORD_FIELDS);
    free(tree);
    free(bits);
    return rc;
}

/* ------------------------------------------------------------------------
 * The healthy-root search.
 *
 * `probe_plan` runs the diagnosis driver's whole probe plan — every
 * partition level, then the fallback attempts — in order, one certificate-
 * stopping `run_one` per probe, and stops at the first probe whose
 * contributor certificate fires.
 *
 * The plan is `num_levels` rows of PLAN_FIELDS int64: (end, table, budget).
 * Level l runs the probes starts[end of level l-1 .. end); its probe k
 * admits only nodes v with class_tables[table * n + v] == k, or every node
 * when table is -1; budget < 0 means no node budget.  A plan may hold
 * only the levels whose class tables the caller has built so far (the
 * driver walks a level's classes only when a search first reaches it); it
 * then resumes with a longer plan from probe `first`.
 *
 * The call allocates its own scratch once and frees it on every return
 * path, as `stacked_rounds` does: a node mask, zero between probes because
 * each probe clears the nodes it touched, the parent and tree arrays
 * (n int32 each) and the admitted bitset, which `run_one` leaves zero.
 *
 * Probes run from index `first`; record t is probe t's run record.  Returns
 * the index after the last probe run — the certified one or the plan's
 * last — or BAD_PLAN, BAD_NODE (both checked before anything is
 * allocated), NO_MEMORY, PARENT_NOT_IN_ROW or MISSING_SIDE_ROW.
 * ------------------------------------------------------------------------ */
#define PLAN_FIELDS 3

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
    int64_t *records)               /* num_probes * RECORD_FIELDS */
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

    uint8_t *mark = calloc((size_t)n, 1);
    int32_t *parent = malloc((size_t)n * sizeof(int32_t));
    int32_t *tree = malloc((size_t)n * sizeof(int32_t));
    uint64_t *bits = calloc((size_t)(n + 63) / 64, sizeof(uint64_t));
    int64_t rc = num_probes;
    if (mark == NULL || parent == NULL || tree == NULL || bits == NULL) {
        rc = NO_MEMORY;
        goto out;
    }
    begin = 0;
    for (int64_t l = 0; l < num_levels; l++) {
        const int64_t *level = levels + l * PLAN_FIELDS;
        const int32_t *class_of = level[1] < 0 ? NULL : class_tables + level[1] * n;
        for (int64_t t = begin > first ? begin : first; t < level[0]; t++) {
            int64_t *record = records + t * RECORD_FIELDS;
            int64_t refused = run_one(indptr, indices, pair_indptr, syn, delta,
                                      (int32_t)starts[t], class_of,
                                      (int32_t)(t - begin), level[2], 1, mark,
                                      parent, tree, bits, record);
            for (int64_t k = 0; k < record[0]; k++)
                mark[tree[k]] = 0;
            if (refused || record[2]) {
                rc = refused ? refused : t + 1;
                goto out;
            }
        }
        begin = level[0];
    }
out:
    free(mark);
    free(parent);
    free(tree);
    free(bits);
    return rc;
}
