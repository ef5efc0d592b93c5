/*
 * Banded x-drop extension, one task at a time: the compiled form of the
 * row recurrence in repro/align/batched_xdrop.py (_batched_extend_numpy,
 * which stays the oracle this kernel is tested against).
 *
 * Task t extends a[0:la] against b[0:lb] from the origin (0, 0).  Row r of
 * its DP holds `band` slots; slot w is column j = r - band/2 + w, and only
 * the slots with 0 <= j <= lb are valid.  Each row takes three passes over
 * the contiguous valid slot range:
 *
 *   1. base[w]  = max(diag + substitution, up + gap), both read from the
 *                 previous row (diagonal at the same slot, up one slot to
 *                 the right);
 *   2. cur[w]   = max(base[w], cur[w - 1] + gap), the prefix-max scan that
 *                 resolves the left-within-row gap;
 *   3. the first slot holding the row maximum.
 *
 * Slots outside the valid range score NEG_INF in the NumPy kernel, so a row
 * with invalid slots never reports a maximum below NEG_INF.  The first
 * valid slot's left neighbour and column 0's missing diagonal are floored
 * at NEG_INF the same way; no result depends on those floors, but they
 * keep every row value equal to the NumPy row's.  A valid cell only reads
 * valid cells of the previous row, so stale values outside the range are
 * never used.
 *
 * Scores are int32, which lets gcc vectorise passes 1 and 3.  Every value
 * the kernel forms lies in [-(2^28 + 2 * band * |gap| + max penalty),
 * match * len(a)]: following "up" moves from a valid cell reaches either
 * row 0 (>= gap * band) or the last slot, floored at NEG_INF + gap, within
 * band - 1 moves.  The caller checks that this range fits int32
 * (repro/align/compiled_xdrop.py, fits_kernel); within it the results are
 * bit-identical to the int64 NumPy kernel.
 */
#include <stdint.h>
#include <stdlib.h>

typedef int32_t score_t;

#define NEG_INF ((score_t)-(1 << 28))

static inline score_t max_score(score_t x, score_t y) { return x > y ? x : y; }

/*
 * Extend every task.  Task t reads a_codes[a_offsets[t] : + a_lengths[t]]
 * and b_codes[b_offsets[t] : + b_lengths[t]].  max_rows < 0 means no cap.
 * Writes score, end coordinates (rows into a, columns into b) and DP cells
 * per task.  Returns 0, or -1 when the row buffers cannot be allocated.
 */
int xdrop_extend_batch(int64_t n_tasks,
                       const uint8_t *a_codes, const int64_t *a_offsets,
                       const int64_t *a_lengths,
                       const uint8_t *b_codes, const int64_t *b_offsets,
                       const int64_t *b_lengths,
                       int32_t match, int32_t mismatch, int32_t gap,
                       int64_t xdrop, int64_t band, int64_t max_rows,
                       int64_t *out_score, int64_t *out_end_a,
                       int64_t *out_end_b, int64_t *out_cells)
{
    score_t *buffers = malloc(2 * (size_t)band * sizeof *buffers);
    if (buffers == NULL)
        return -1;
    const int64_t half = band / 2;

    for (int64_t t = 0; t < n_tasks; t++) {
        const uint8_t *a = a_codes + a_offsets[t];
        const uint8_t *b = b_codes + b_offsets[t];
        const int64_t la = a_lengths[t];
        const int64_t lb = b_lengths[t];
        int64_t rows = la;
        if (max_rows >= 0 && max_rows < rows)
            rows = max_rows;

        int64_t best = 0, best_i = 0, best_j = 0, cells = 0;
        score_t *prev = buffers;
        score_t *cur = buffers + band;

        /* Row 0: cell (0, j) scores gap * j. */
        for (int64_t w = 0; w < band; w++) {
            const int64_t j = w - half;
            prev[w] = (j >= 0 && j <= lb) ? (score_t)(gap * j) : NEG_INF;
        }

        for (int64_t row = 1; row <= rows; row++) {
            cells += band;
            const int64_t first_col = row - half;  /* column of slot 0 */
            const int64_t lo = first_col < 0 ? -first_col : 0;
            const int64_t hi = lb - first_col < band - 1 ? lb - first_col : band - 1;
            score_t row_best = NEG_INF;
            int64_t best_slot = 0;

            if (lo <= hi) {
                const uint8_t code_a = a[row - 1];
                const uint8_t *b_row = b + (first_col - 1);  /* b_row[w] = b[j - 1] */

                /* Pass 1: base scores from the previous row.  Column 0 has no
                 * diagonal predecessor and the last slot no up predecessor;
                 * both are peeled off so the inner loop has no branches. */
                int64_t w0 = lo;
                if (first_col + lo == 0) {
                    cur[lo] = max_score(NEG_INF, (lo + 1 < band ? prev[lo + 1] : NEG_INF) + gap);
                    w0 = lo + 1;
                }
                const int64_t w1 = hi < band - 1 ? hi : band - 2;
                for (int64_t w = w0; w <= w1; w++) {
                    const score_t diag = prev[w] + (b_row[w] == code_a ? match : mismatch);
                    cur[w] = max_score(diag, prev[w + 1] + gap);
                }
                if (hi == band - 1 && w0 <= hi) {
                    const score_t diag = prev[hi] + (b_row[hi] == code_a ? match : mismatch);
                    cur[hi] = max_score(diag, NEG_INF + gap);
                }

                /* Pass 2: prefix-max scan for the left gap.  The left
                 * neighbour of the first valid slot scores NEG_INF when it
                 * exists, which keeps every value equal to the NumPy row. */
                if (lo > 0)
                    cur[lo] = max_score(cur[lo], NEG_INF + gap);
                for (int64_t w = lo + 1; w <= hi; w++)
                    cur[w] = max_score(cur[w], cur[w - 1] + gap);

                /* Pass 3: the row maximum, then its first slot. */
                row_best = cur[lo];
                for (int64_t w = lo + 1; w <= hi; w++)
                    row_best = max_score(row_best, cur[w]);
                best_slot = lo;
                while (cur[best_slot] != row_best)
                    best_slot++;
                if ((lo > 0 || hi < band - 1) && row_best < NEG_INF)
                    row_best = NEG_INF;
            }

            if (row_best > best) {
                best = row_best;
                best_i = row;
                best_j = first_col + best_slot;
            }
            if (row_best < best - xdrop || row >= la)
                break;

            score_t *swap = prev;
            prev = cur;
            cur = swap;
        }

        out_score[t] = best;
        out_end_a[t] = best_i;
        out_end_b[t] = best_j;
        out_cells[t] = cells;
    }

    free(buffers);
    return 0;
}
